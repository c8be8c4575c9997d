"""The three-line kernel of roots against the generic log split it replaced.

The reference below is the generic form: f's terms split by sign into the
sides P and N of f = P - N, each side a tuple of (log |coefficient|, power)
lines, F = log P - log N summed side by side, the bracket ends one unit
beyond the outermost of all pairwise crossings.  The kernel keeps one fixed
form per row with alpha != 0: the lone line (a0, p0) and the two-line side,
G = log(two-line side) - lone line, and F = +-G.  On seeded rows of every
shape, from m = 3 to m = 4096 and c from 1e-300 to 1e300, G and G' must
equal +-F and +-F' bit for bit, up to the sign of a zero, which no
comparison or step reads.  So must the bracket ends, the refined zeros and
the intervals bracket() returns.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from rayzeros import all_zeros, analyze_ray, bracket, validate
from rayzeros import roots
from rayzeros.rays import _LOG2, _build_threshold_rows, _log_r0, _side

from conftest import valid_k_choices

RTOL = roots._STEP_RTOL


def ref_log_split(parity, m, k, c, alpha):
    pos, neg = [], []
    (neg if parity else pos).append((0.0, m))
    if alpha:
        (pos if alpha > 0 else neg).append((_LOG2 + math.log(c) + math.log(abs(alpha)), k))
    neg.append((0.0, 0))
    return tuple(pos), tuple(neg)


def ref_log_side(side, s):
    if len(side) == 1:
        (a, p), = side
        return a, p, 0.0, float(p)
    (a1, p1), (a2, p2) = side
    d = (a2 - a1) + (p2 - p1) * s
    if d > 0:
        a1, p1, p2, d = a2, p2, p1, -d
    w = math.exp(d)
    return a1, p1, math.log1p(w), (p1 + p2 * w) / (1.0 + w)


def ref_log_f(split, s):
    ap, pp, lp, dp = ref_log_side(split[0], s)
    an, pn, ln, dn = ref_log_side(split[1], s)
    return (ap - an) + (pp - pn) * s + (lp - ln), dp - dn


def ref_brackets(m, k, c, parity, alpha, pair):
    """The split and the intervals (a, F(a), b, F(b)) from all pairwise crossings."""
    split = ref_log_split(parity, m, k, c, alpha)
    lines = split[0] + split[1]
    cross = [(a2 - a1) / (p1 - p2) for (a1, p1), (a2, p2) in combinations(lines, 2)]
    ends = [min(cross) - 1.0, max(cross) + 1.0]
    if pair:
        ends.insert(1, _log_r0(m, k, alpha, c))
    points = [(s, ref_log_f(split, s)[0]) for s in ends]
    return split, [lo + hi for lo, hi in zip(points, points[1:])]


def ref_refine(split, a, b, a_neg, step_rtol):
    s = 0.5 * (a + b)
    for _ in range(roots._NEWTON_STEPS):
        value, slope = ref_log_f(split, s)
        step = value / slope if slope else math.inf
        t = s - step
        if abs(step) <= step_rtol or t == s:
            return t
        if (value < 0) == a_neg:
            a = s
        else:
            b = s
        if not a < t < b:
            t = 0.5 * (a + b)
            if not a < t < b:
                break
        s = t
    return s


def bits(x: float) -> str:
    return (x + 0.0).hex()  # -0.0 + 0.0 is 0.0


def solved_rows(seed: int, count: int):
    """(m, k, c, j, alpha, n) for seeded rows with zeros outside the tangency band,
    the first of them at m = 4096."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        m = 4096 if found < 24 else int(math.exp(rng.uniform(math.log(3), math.log(4096))))
        k = rng.choice(valid_k_choices(m)) if m < 200 else rng.choice((1, -1)) * rng.randrange(1, m)
        if math.gcd(m, abs(k)) != 1:
            continue
        c = 10.0 ** rng.uniform(-300, 300) if rng.random() < 0.25 else 10.0 ** rng.uniform(-3, 3)
        p, (order, c0s) = validate(m, k, c), _build_threshold_rows(m, k)[:2]
        c0 = dict(zip(order, c0s))
        for j in rng.sample(range(m + 1), min(m + 1, 8)):
            a = analyze_ray(p, j)
            alpha, side = a.alpha, _side(c, c0.get(j))
            n = a.profile[side]
            if n and alpha and side != 1:
                found += 1
                yield m, k, c, j, alpha, n


def shape(j, alpha):
    return (j % 2, alpha > 0)


ROWS = list(solved_rows(2121, 300))


def test_rows_cover_every_shape_and_size():
    assert {shape(j, alpha) for _, _, _, j, alpha, _ in ROWS} == {(0, True), (0, False), (1, True)}
    assert max(m for m, *_ in ROWS) == 4096
    assert {n for *_, n in ROWS} == {1, 2}


@pytest.mark.parametrize("i", range(0, len(ROWS), 10))
def test_g_is_plus_or_minus_f_bit_for_bit(i):
    rows = ROWS[i:i + 10]
    for m, k, c, j, alpha, n in rows:
        lines, lo, hi = roots._log_brackets(m, k, _LOG2 + math.log(c), j % 2, alpha)
        sign, below, above = roots._log_run(k, j % 2, alpha)
        ends, negs = [lo, hi], [below, above]
        if n == 2:  # the pair's split point, as the run solver takes it
            ends.insert(1, _log_r0(m, k, alpha, c))
            negs.insert(1, sign * roots._log_f(lines, ends[1])[0] < 0)
        split, intervals = ref_brackets(m, k, c, j % 2, alpha, n == 2)
        ref_ends = [iv[0] for iv in intervals] + [intervals[-1][2]]
        ref_values = [iv[1] for iv in intervals] + [intervals[-1][3]]
        assert list(map(bits, ends)) == list(map(bits, ref_ends)), (m, k, c, j)
        # F's sign at every end: the outer ends' from the tail terms, the split point's evaluated
        assert negs == [v < 0 for v in ref_values], (m, k, c, j)
        assert all(abs(v) > 0.3 for v in (ref_values[0], ref_values[-1]))  # log(e/2) of margin
        # both sides of the two-line side's swap at d = 0, and seeded points between the ends
        a0, p0, a1, p1, a2, p2 = lines
        swap = (a1 - a2) / (p2 - p1)
        rng = random.Random(f"{m}:{k}:{j}")
        points = ends + [swap, math.nextafter(swap, -math.inf), math.nextafter(swap, math.inf)]
        points += [rng.uniform(ends[0], ends[-1]) for _ in range(20)]
        for s in points:
            g, dg = roots._log_f(lines, s)
            f, df = ref_log_f(split, s)
            assert (bits(sign * g), bits(sign * dg)) == (bits(f), bits(df)), (m, k, c, j, s)
        # the refined zeros: Newton on G takes F's steps
        for a, fa, b, _ in intervals:
            new = roots._refine(lines, a, b, (fa < 0) != (sign < 0))
            assert bits(new) == bits(ref_refine(split, a, b, fa < 0, RTOL)), (m, k, c, j)


def test_bracket_equals_the_reference_intervals():
    for m, k, c, j, alpha, n in ROWS[::3]:
        p = validate(m, k, c)
        got = bracket(analyze_ray(p, j), c)
        _, intervals = ref_brackets(m, k, c, j % 2, alpha, n == 2)
        want = [(math.exp(a), math.exp(b)) for a, _, b, _ in intervals]
        assert [(bits(a), bits(b)) for a, b in got] == [(bits(a), bits(b)) for a, b in want], (m, k, c, j)


@pytest.mark.parametrize("m, k", [(4, 1), (8, -3), (12, 5), (16, -7), (4096, 4095), (4096, -1)])
def test_alpha_zero_row_is_the_unit_radius(m, k):
    """alpha = 0 on an even ray, which needs 4 | m, leaves f = r^m - 1; the reference brackets it in
    [-1, 1] and its Newton stops at s = 0 at once, at any step tolerance."""
    p = validate(m, k, 0.7)
    rows = [j for j in range(0, m + 1, 2) if analyze_ray(p, j).alpha == 0.0]
    assert rows
    by_ray = {rec.j: rec for rec in all_zeros(p)}
    for j in rows:
        split, [(a, fa, b, fb)] = ref_brackets(m, k, p.c, 0, 0.0, False)
        assert (a, b) == (-1.0, 1.0) and fa < 0 < fb
        for rtol in (RTOL, 0.0, -1.0, math.nan):
            assert ref_refine(split, a, b, True, rtol) == 0.0
        assert by_ray[j].r == 1.0
        assert bracket(analyze_ray(p, j), p.c) == [(math.exp(-1.0), math.exp(1.0))]


def test_zero_slope_bisects_inside_the_bracket():
    """Two equal lines on the two-line side and a lone line of the same power
    leave G = log 2 with G' = 0 everywhere: Newton has no step, so every
    iteration bisects, and the result stays a float inside the bracket."""
    s = roots._refine((0.0, 1, 0.0, 1, 0.0, 1), -1.0, 1.0, True)
    assert isinstance(s, float) and -1.0 <= s <= 1.0
