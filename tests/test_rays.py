"""Case dispatch, per-ray counts, extremum and threshold closed forms."""
from __future__ import annotations

import cmath
import math
import random
import re
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from rayzeros import (
    NonPositiveCError,
    ParameterError,
    RayCase,
    analyze_ray,
    bracket,
    census,
    classify_ray,
    count_at,
    degenerate_at,
    evaluate,
    extremum_radius,
    f_derivative,
    f_value,
    predict_at,
    thresholds,
    validate,
)
from rayzeros.family import alpha_from_residue, power_term
from rayzeros.rays import EXTREMUM_CASES, _r0, _threshold_rows
from rayzeros.roots import _over_power, unit_direction

from conftest import brute_ray_count, valid_k_choices, valid_pairs
from exact import alpha as exact_alpha, big_c as exact_big_c, p as exact_p, radial


class TestFValue:
    def test_unit_radius_polynomial(self):
        p = validate(5, 4, 1.0)
        assert f_value(p, classify_ray(p, 0), 1.0) == 2.0

    def test_quadratic_root(self):
        # f(r) = r^2 + 2r - 1 on ray 0 of (m=2, k=1, c=1); positive root by
        # the quadratic formula
        p = validate(2, 1, 1.0)
        root = math.sqrt(2.0) - 1.0
        assert abs(f_value(p, classify_ray(p, 0), root)) < 1e-15

    def test_matches_evaluate_on_positive_axis(self):
        from rayzeros import evaluate

        p = validate(5, -4, 0.2)
        val = f_value(p, classify_ray(p, 0), 1.0)
        assert math.isclose(val, 0.4, rel_tol=1e-15)
        assert val == evaluate(p, 1.0).real

    @pytest.mark.parametrize("r", [1e100, 1e300])
    def test_both_powers_overflow_degree_m_wins(self, r):
        """Where r^m and r^k both overflow with opposite signs, f, f' and Re p
        all take the sign of the degree-m term, (-1)^j."""
        p = validate(5, 4, 1.0)
        for j in range(3, 8):  # rays whose middle term has the sign opposite to (-1)^j
            ray = classify_ray(p, j)
            want = -math.inf if j % 2 else math.inf
            assert f_value(p, ray, r) == want
            assert f_derivative(p, ray, r) == want
            assert evaluate(p, r * unit_direction(5, j)).real == want

    def test_rejects_nonpositive_radius(self):
        p = validate(3, 1, 1.0)
        with pytest.raises(ValueError):
            f_value(p, classify_ray(p, 0), 0.0)

    @pytest.mark.parametrize("fn", [f_value, f_derivative])
    def test_rejects_nan_radius(self, fn):
        p = validate(5, 4, 1.0)
        with pytest.raises(ValueError, match="need r > 0"):
            fn(p, classify_ray(p, 3), math.nan)


class TestInvalidC:
    """validate and every per-ray query at an outside c share one rule: 0 < c <= max float."""

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("query", [count_at, degenerate_at, extremum_radius, bracket])
    def test_per_ray_query_rejects(self, query, c):
        p = validate(5, 4, 1.0)
        for j in (0, 1, 3, 4):  # one zero, none, a threshold, an extremum without one
            with pytest.raises(NonPositiveCError):
                query(analyze_ray(p, j), c)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_validate_and_predict_at_reject(self, c):
        with pytest.raises(NonPositiveCError):
            validate(5, 4, c)
        with pytest.raises(NonPositiveCError):
            predict_at(validate(5, 4, 1.0), c)

    @pytest.mark.parametrize("c", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative_int", "fraction"])
    def test_c_beyond_the_float_range_is_rejected(self, c):
        """A c that float64 cannot hold fails the same rule: no OverflowError
        escapes, and count_at answers no count there."""
        p = validate(5, 4, 1.0)
        with pytest.raises(NonPositiveCError):
            validate(5, 4, c)
        with pytest.raises(NonPositiveCError):
            predict_at(p, c)
        for query in (count_at, degenerate_at, extremum_radius):
            for j in (0, 1, 3, 4):
                with pytest.raises(NonPositiveCError):
                    query(analyze_ray(p, j), c)

    @pytest.mark.parametrize("c, shown", [("abc", "c='abc'"), (None, "c=None"), (1j, "c=1j"), ([1.0], "c=[1.0]")])
    def test_validate_names_a_c_that_is_not_a_number(self, c, shown):
        p = validate(5, 4, 1.0)
        queries = [partial(q, analyze_ray(p, 3)) for q in (count_at, degenerate_at, extremum_radius, bracket)]
        for call in [partial(validate, 5, 4), partial(predict_at, p)] + queries:
            with pytest.raises(ParameterError, match=re.escape(shown)) as exc:
                call(c)
            assert type(exc.value) is ParameterError

    @pytest.mark.parametrize("c", ["0.7", "1.0", "1e3"])
    def test_a_numeric_string_c_answers_as_its_float(self, c):
        p = validate(5, 4, c)
        assert p == validate(5, 4, float(c)) and predict_at(p, c) == predict_at(p, float(c))
        for a in map(partial(analyze_ray, p), range(10)):
            for query in (count_at, degenerate_at, extremum_radius, bracket):
                assert query(a, c) == query(a, float(c)), (query, a.ray.j)

    def test_largest_and_smallest_finite_c_are_valid(self):
        p = validate(5, 4, 1.0)
        analyses = [analyze_ray(p, j) for j in range(10)]
        for c in (sys.float_info.max, 5e-324):
            assert validate(5, 4, c).c == c
            assert predict_at(p, c) == sum(count_at(a, c) for a in analyses)
            assert not degenerate_at(analyses[3], c) and extremum_radius(analyses[3], c) is not None

    def test_r0_at_both_ends_of_the_c_range(self):
        """r0 = 2 c k alpha / m on (5,4) ray 3: in range at c = 1e308, 0.0 where it
        underflows (inf where it overflows is pinned in test_refine)."""
        a = analyze_ray(validate(5, 4, 1.0), 3)
        big = 1e308 * (8.0 * a.alpha / 5.0)
        for c, r0 in ((1e308, big), (5e-324, 0.0)):
            assert extremum_radius(a, c) == extremum_radius(analyze_ray(validate(5, 4, c), 3), c)
            assert math.isclose(extremum_radius(a, c), r0, rel_tol=1e-12, abs_tol=0.0)


def reference_dominant_sum(tm: float, tk: float) -> float:
    """The overflow rule before the divide-through form: opposite infinities
    resolve to the degree-m term tm."""
    if math.isinf(tm) and math.isinf(tk) and (tm > 0) != (tk > 0):
        return tm
    return tm + tk


def reference_values(p, j: int, r: float, z: complex) -> tuple[float, float, float]:
    """f, f' and Re p(z) from the dominant-sum formulas, term by term."""
    m, k, c = p.m, p.k, p.c
    alpha = alpha_from_residue(m, k * j)
    sgn = -1.0 if j % 2 else 1.0
    f = reference_dominant_sum(power_term(sgn, r, m), 2.0 * power_term(c * alpha, r, k)) - 1.0
    fd = reference_dominant_sum(power_term(sgn * m, r, m - 1), power_term(2.0 * c * k * alpha, r, k - 1))
    rz, theta = cmath.polar(z)
    tm = power_term(math.cos(m * theta), rz, m)
    re = reference_dominant_sum(tm, 2.0 * power_term(c * math.cos(k * theta), rz, k)) - 1.0
    return f, fd, re


def exact_values(p, j: int, r: float, z: complex) -> tuple:
    """f, f' and Re p(z) exactly, on the same float r, z and c."""
    m, k = p.m, p.k
    f, fd = radial(m, k, -1 if j % 2 else 1, 2 * exact_alpha(m, k * j) * p.c, r)
    return f, fd, exact_p(m, k, p.c, z).real


def sign(x) -> int:
    """-1, 0 or 1 as the exact value x is negative, zero or positive."""
    return (x > 0) - (x < 0)


def library_values(p, j: int, r: float, z: complex) -> tuple[float, float, float]:
    ray = classify_ray(p, j)
    return f_value(p, ray, r), f_derivative(p, ray, r), evaluate(p, z).real


def random_points(n: int, seed: int):
    """(params, j, r, z) with m up to 3000, c and r log-uniform in [1e-300, 1e300],
    z on ray j or a relative 1e-9 off it."""
    rnd = random.Random(seed)
    for _ in range(n):
        m = rnd.choice((rnd.randint(2, 12), rnd.randint(2, 300), rnd.randint(2, 3000)))
        k = rnd.choice([a for a in range(1 - m, m) if a and math.gcd(m, abs(a)) == 1])
        p = validate(m, k, 10 ** rnd.uniform(-300, 300))
        j = rnd.randrange(2 * m)
        r = 10 ** rnd.uniform(-300, 300)
        yield p, j, r, r * unit_direction(m, j) * complex(1.0, rnd.uniform(-1e-9, 1e-9))


class TestOverflowRule:
    """One overflow rule: where r^m overflows, the sum divided through by r^m
    decides the sign; wherever the old dominant-sum formulas are finite, the
    values are bitwise theirs."""

    def test_sign_at_large_c_is_exact(self):
        # at (5, 4, 1e300) and r = 1e80, 2 c alpha r^4 outweighs r^5 on every ray
        p = validate(5, 4, 1e300)
        r = 1e80
        for j in range(10):
            z = r * unit_direction(5, j)
            got = library_values(p, j, r, z)
            assert all(math.isinf(v) for v in got), (j, got)
            want = [sign(v) for v in exact_values(p, j, r, z)]
            assert [math.copysign(1.0, v) for v in got] == want, j

    def test_bitwise_equal_to_dominant_sum_where_finite(self):
        finite = 0
        for p, j, r, z in random_points(3000, seed=10):
            for i, (got, ref) in enumerate(zip(library_values(p, j, r, z), reference_values(p, j, r, z))):
                # where the old f' lost an underflowed middle term, or digits of it, the value moved
                moved = math.isfinite(ref) and got.hex() != ref.hex() and (ref == 0.0 or subnormal_middle_power(p, r))
                if i == 1 and moved:
                    assert float(abs(got - exact_values(p, j, r, z)[1])) <= 1e-12 * abs(got) + 1e-323, (p, j, r, z)
                elif math.isfinite(ref):
                    finite += 1
                    assert got.hex() == ref.hex(), (p, j, r, z)
        assert finite > 2500

    def test_overflowed_values_take_the_exact_sign(self):
        infinite = 0
        for p, j, r, z in random_points(3000, seed=11):
            got = library_values(p, j, r, z)
            if not any(math.isinf(v) for v in got):
                continue
            for value, exact in zip(got, exact_values(p, j, r, z)):
                if math.isinf(value):
                    infinite += 1
                    assert math.copysign(1.0, value) == sign(exact), (p, j, r, z, value)
        assert infinite > 1000

    @pytest.mark.parametrize(
        "coeff, r, p, want",
        [
            (2.5, math.inf, 3, math.inf),
            (-2.5, math.inf, 3, -math.inf),
            (2.5, math.inf, -3, 0.0),
            (-2.5, math.inf, -3, -0.0),
            (3.0, 1e200, 2, math.inf),  # r ** p overflows
            (-3.0, 1e200, 2, -math.inf),
            (-1.0, 1e-200, -2, -math.inf),
            (1.5, 10, 400, math.inf),  # an int power too large for a float
            (-1.5, 10, 400, -math.inf),
            (0.0, math.inf, 3, 0.0),
        ],
    )
    def test_power_term_at_infinity_and_overflow(self, coeff, r, p, want):
        got = power_term(coeff, r, p)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_int_radius_overflows_as_its_float(self):
        p = validate(400, 1, 1.0)
        ray = classify_ray(p, 0)
        assert f_value(p, ray, 10) == f_value(p, ray, 10.0) == math.inf


def reference_f_derivative(p, j: int, r: float) -> float:
    """f' with the middle coefficient 2 c k alpha formed first, as before it was
    guarded: nan where 2 c k overflows and meets alpha = 0 or r^(k-1) = 0."""
    m, k, c = p.m, p.k, p.c
    alpha = alpha_from_residue(m, k * j)
    sgn = -1.0 if j % 2 else 1.0
    tm = power_term(sgn * m, r, m - 1)
    if math.isinf(tm):
        return power_term(m * _over_power(sgn, c * (k * alpha / m), r, m - 1, k - 1, 0.0), r, m - 1)
    return tm + power_term(2.0 * c * k * alpha, r, k - 1)


def guarded_reference_f_derivative(p, j: int, r: float) -> float:
    """f' with 2 c k guarded against overflow but the power unguarded: the middle
    term is lost where r^(k-1) rounds to 0."""
    m, k, c = p.m, p.k, p.c
    alpha = alpha_from_residue(m, k * j)
    tm = power_term((-1.0 if j % 2 else 1.0) * m, r, m - 1)
    b = 2.0 * c * k * alpha
    if math.isinf(tm) or math.isfinite(b):
        return reference_f_derivative(p, j, r)
    return tm + 2.0 * k * power_term(c * alpha, r, k - 1)


def subnormal_middle_power(p, r: float) -> bool:
    """True where r^(k-1) underflows to a subnormal or 0, the points whose
    middle term of f' now comes from logs."""
    return power_term(1.0, r, p.k - 1) < sys.float_info.min


def derivative_samples(n: int, seed: int):
    """(params, j, r) with m up to 3000, c up to 1.7e308 and r in [1e-300, 1e300]."""
    rnd = random.Random(seed)
    for _ in range(n):
        m = rnd.choice((rnd.randint(2, 12), rnd.randint(2, 300), rnd.randint(2, 3000)))
        k = 0
        while not (k and math.gcd(m, abs(k)) == 1):
            k = rnd.randint(1 - m, m - 1)
        c = rnd.choice((10 ** rnd.uniform(-300, 308), rnd.uniform(1e306, 1.7e308)))
        yield validate(m, k, c), rnd.randrange(2 * m), 10 ** rnd.uniform(-300, 300)


class TestDerivativeCoefficientOverflow:
    def test_alpha_zero_at_huge_c(self):
        # ray 3 of (2, 1) has alpha = 0, so f' = -2r, but 2 c k alone is inf
        p = validate(2, 1, 9.85e307)
        r = 1.97e45
        assert math.isnan(reference_f_derivative(p, 3, r))
        assert f_derivative(p, classify_ray(p, 3), r) == -2.0 * r

    def test_never_nan_and_bitwise_equal_where_normal(self):
        normal = was_nan = 0
        for p, j, r in derivative_samples(20000, 20261018):
            m, k, c = p
            got, ref = f_derivative(p, classify_ray(p, j), r), reference_f_derivative(p, j, r)
            assert not math.isnan(got), (m, k, c, j, r)
            if math.isnan(ref):
                was_nan += 1
                if math.isinf(got):
                    assert math.copysign(1.0, got) == sign(exact_values(p, j, r, complex(r))[1])
            elif math.isfinite(ref) and abs(ref) >= sys.float_info.min:
                normal += 1
                if subnormal_middle_power(p, r):
                    assert float(abs(got / exact_values(p, j, r, complex(r))[1] - 1)) <= 1e-12, (m, k, c, j, r)
                else:
                    assert got.hex() == ref.hex(), (m, k, c, j, r)
        assert normal > 1500 and was_nan > 1500

    def test_underflowed_power_keeps_the_middle_term(self):
        # r^2 underflows to 0, but 2 c k alpha r^2 is about 6.4e-52
        p = validate(4, 3, 1.2017439612127226e308)
        r = 1.1234675516205486e-180
        assert guarded_reference_f_derivative(p, 3, r) == 0.0
        got = f_derivative(p, classify_ray(p, 3), r)
        assert float(abs(got / exact_values(p, 3, r, complex(r))[1] - 1)) <= 1e-12

    def test_subnormal_power_keeps_the_middle_terms_digits(self):
        # r^2 is the subnormal 5e-324, so 2 c k alpha r^2 kept one digit and was 20% off
        p = validate(7, 3, 1.2628284479936065e308)
        r = 2.0266873041921574e-162
        assert subnormal_middle_power(p, r) and guarded_reference_f_derivative(p, 3, r) == -2.3340471144626333e-15
        got = f_derivative(p, classify_ray(p, 3), r)
        assert float(abs(got / exact_values(p, 3, r, complex(r))[1] - 1)) <= 1e-12

    def test_no_zero_or_subnormal_where_exact_is_normal(self):
        mended = 0
        for p, j, r in derivative_samples(20000, 20261018):
            got, before = f_derivative(p, classify_ray(p, j), r), guarded_reference_f_derivative(p, j, r)
            if math.isfinite(before) and abs(before) >= sys.float_info.min and not subnormal_middle_power(p, r):
                assert got.hex() == before.hex(), (p, j, r)
            elif math.isfinite(got) and abs(got) < sys.float_info.min:
                assert abs(exact_values(p, j, r, complex(r))[1]) < sys.float_info.min, (p, j, r)
            elif got != before:
                mended += 1
                assert float(abs(got / exact_values(p, j, r, complex(r))[1] - 1)) <= 1e-12, (p, j, r)
        assert mended > 100


class TestDispatch:
    def test_every_ray_has_exactly_one_case(self):
        for m, k in valid_pairs(16):
            p = validate(m, k, 1.0)
            seen = {}
            for j in range(2 * m):
                seen[j] = analyze_ray(p, j).case
            assert len(seen) == 2 * m
            pos_cases = {c for c in seen.values() if c.value.startswith("pos_k")}
            neg_cases = {c for c in seen.values() if c.value.startswith("neg_k")}
            if k > 0:
                assert not neg_cases
            else:
                assert not pos_cases

    def test_case_counts_match_census(self):
        p = validate(5, 4, 1.0)
        cen = census(p)
        by_case = {}
        for j in range(10):
            by_case.setdefault(analyze_ray(p, j).case, []).append(j)
        assert len(by_case[RayCase.POS_K_EVEN_POS]) == cen.even_pos
        assert len(by_case[RayCase.POS_K_ODD_POS]) == cen.odd_pos
        assert len(by_case[RayCase.POS_K_EVEN_NEG]) == cen.even_neg
        assert len(by_case[RayCase.POS_K_ODD_NEG]) == cen.odd_neg


class TestThresholdClosedForm:
    def test_smallest_odd_case(self):
        # (m=3, k=1), ray 1: alpha = 1/2, threshold at (3 sqrt(3) / 2)^(2/3)
        p = validate(3, 1, 1.0)
        a = analyze_ray(p, 1)
        assert a.case is RayCase.POS_K_ODD_POS
        expected = (3.0 * math.sqrt(3.0) / 2.0) ** (2.0 / 3.0)
        assert math.isclose(a.c0, expected, rel_tol=1e-12)

    def test_threshold_flips_extremal_value(self):
        """Numerical verification: the extremal f value changes sign at c0.

        f(r0) = (c / c0)^{m/(m-k)} - 1 for both threshold shapes, so it is
        negative below c0 and positive above, whatever the sign of k."""
        for m, k, j in ((3, 1, 1), (5, 4, 5), (7, -4, 0), (9, -8, 2)):
            base = analyze_ray(validate(m, k, 1.0), j)
            assert base.c0 is not None
            for c, expect_negative in (
                (base.c0 * (1 - 1e-6), True),
                (base.c0 * (1 + 1e-6), False),
            ):
                p = validate(m, k, c)
                a = analyze_ray(p, j)
                extremal = f_value(p, a.ray, extremum_radius(a, c))
                assert (extremal < 0) == expect_negative, (m, k, j, c)

    def test_constant_count_case(self):
        a = analyze_ray(validate(5, 4, 0.1), 0)
        assert a.case is RayCase.POS_K_EVEN_POS
        assert a.c0 is None
        assert count_at(a, 0.001) == count_at(a, 1000.0) == 1

    def test_no_zero_case(self):
        # (5, -4), ray 1: alpha = cos(-4 pi/5) < 0, odd parity
        a = analyze_ray(validate(5, -4, 1.0), 1)
        assert a.case is RayCase.NEG_K_ODD_NEG
        assert count_at(a, 0.5) == 0


class TestCountAt:
    def test_pair_appears_above_threshold(self):
        a = analyze_ray(validate(3, 1, 1.0), 1)
        assert count_at(a, a.c0 / 2) == 0
        assert count_at(a, a.c0 * 2) == 2

    def test_pair_disappears_above_threshold(self):
        a = analyze_ray(validate(5, -4, 1.0), 0)
        assert count_at(a, a.c0 / 2) == 2
        assert count_at(a, a.c0 * 2) == 0

    def test_alpha_zero_even_ray_has_unit_zero(self):
        p = validate(2, 1, 1.0)
        a = analyze_ray(p, 0)
        for c in (1e-3, 1.0, 1e3):
            assert count_at(a, c) == 1
        # (m=4, k=1), ray 2 is the even alpha-zero shape: f = r^4 - 1
        p4 = validate(4, 1, 7.0)
        a4 = analyze_ray(p4, 2)
        assert a4.case is RayCase.EVEN_ALPHA_ZERO
        assert abs(f_value(p4, a4.ray, 1.0)) == 0.0

    def test_degenerate_band(self):
        a = analyze_ray(validate(3, 1, 1.0), 1)
        assert count_at(a, a.c0) == 1
        assert degenerate_at(a, a.c0)
        assert not degenerate_at(a, a.c0 * (1 + 1e-6))

    def test_monotone_in_c(self):
        cs = [10.0 ** e for e in range(-4, 5)]
        for m, k in valid_pairs(12):
            p = validate(m, k, 1.0)
            for j in range(2 * m):
                a = analyze_ray(p, j)
                counts = [count_at(a, c) for c in cs]
                ordered = sorted(counts) if k > 0 else sorted(counts, reverse=True)
                assert counts == ordered

    def test_rejects_nonpositive_c(self):
        a = analyze_ray(validate(3, 1, 1.0), 0)
        with pytest.raises(ValueError):
            count_at(a, 0.0)


class TestExtremum:
    def test_derivative_changes_sign_at_r0(self):
        rng = random.Random(20240817)
        for _ in range(60):
            m = rng.randint(2, 13)
            k = rng.choice(valid_k_choices(m))
            c = 10.0 ** rng.uniform(-2, 2)
            p = validate(m, k, c)
            for j in range(2 * m):
                a = analyze_ray(p, j)
                r0 = extremum_radius(a, c)
                if r0 is None:
                    continue
                lo = f_derivative(p, a.ray, r0 * (1 - 1e-5))
                hi = f_derivative(p, a.ray, r0 * (1 + 1e-5))
                assert lo * hi < 0, (m, k, c, j)

    def test_r0_scales_with_c(self):
        a = analyze_ray(validate(5, 4, 1.0), 5)
        r1 = extremum_radius(a, 1.0)
        r2 = extremum_radius(a, 2.0)
        assert math.isclose(r2 / r1, 2.0 ** (1.0 / (5 - 4)), rel_tol=1e-12)

    def test_monotone_cases_have_no_r0(self):
        a = analyze_ray(validate(5, 4, 1.0), 0)
        assert a.case is RayCase.POS_K_EVEN_POS
        assert extremum_radius(a, 1.0) is None

    def test_all_negative_case_has_no_r0(self):
        """f' changes sign on a NEG_K_ODD_NEG ray, but f < 0 throughout."""
        a = analyze_ray(validate(5, -4, 1.0), 1)
        assert a.case is RayCase.NEG_K_ODD_NEG
        assert extremum_radius(a, 1.0) is None

    def test_extremum_cases_are_the_sign_changes_of_f_prime_but_one(self):
        """f' = (-1)^j m r^(m-1) + 2 c k alpha r^(k-1) changes sign once exactly
        where (-1)^j and k alpha have opposite signs.  Those cases are the
        extremum cases and NEG_K_ODD_NEG, whose terms are all negative, so its
        maximum never reaches zero and r0 stays None."""
        opposite, same = set(), set()
        for m, k in valid_pairs(11):
            p = validate(m, k, 1.0)
            for j in range(2 * m):
                a = analyze_ray(p, j)
                (opposite if (-1) ** j * k * a.alpha < 0 else same).add(a.case)
        assert not opposite & same
        assert opposite == EXTREMUM_CASES | {RayCase.NEG_K_ODD_NEG}
        assert len(opposite | same) == len(RayCase)


class TestTangencyCircle:
    """At c = c0, f = f' = 0 leave r0^m = |k|/(m-k) whatever alpha is: every
    tangential double zero of a pair lies on |z| = (|k|/(m-k))^(1/m).  r0 is
    taken from the threshold rows' c0.  The k = +-(m - 1) ladder divides _log_r0's sum
    by m - k = 1 or nearly 2m; a log |k| - log m there, two terms near 9.2,
    missed rho* by up to 4.0e-15 at (6500, 6499), so _log_r0 takes log(|k|/m)."""

    @staticmethod
    def pairs():
        rng = random.Random(9091)
        yield from ((10000, 1), (10000, -1), (9999, 9998), (10000, -9999))
        yield from ((m, sign * (m - 1)) for m in range(1000, 10001, 500) for sign in (1, -1))
        for _ in range(24):
            m = int(10.0 ** rng.uniform(0.5, 4.0))
            k = rng.choice((1, -1)) * rng.randrange(1, m)
            if math.gcd(m, abs(k)) == 1:
                yield m, k

    def test_every_threshold_row_is_on_the_circle(self):
        rows = 0
        for m, k in self.pairs():
            p, (order, c0s, _) = validate(m, k, 1.0), _threshold_rows(m, k)
            rho = (abs(k) / (m - k)) ** (1.0 / m)
            for row, c0 in zip(order, c0s):
                assert abs(_r0(m, k, analyze_ray(p, row).alpha, c0) / rho - 1.0) <= 2e-15, (m, k, row)
            rows += len(order)
        assert rows > 10000


class TestThresholdAccuracy:
    """Each threshold row's c0 = C / alpha against the exact reference, from the exact
    C(m, k) and alpha = cos(pi s / m) of the row's folded residue s."""

    @staticmethod
    def sample():
        """(m, k, rows): every threshold row of three pairs with |k| close to m,
        then up to 30 seeded rows of each of 60 seeded pairs up to m = 10^4."""
        rng = random.Random(2210)
        for m, k in ((9999, 9998), (10000, -9999), (2000, 1999)):
            yield m, k, list(_threshold_rows(m, k)[0])
        pairs = 0
        while pairs < 60:
            m = int(10.0 ** rng.uniform(0.5, 4.0))
            k = rng.choice((1, -1)) * rng.randrange(1, m)
            if math.gcd(m, abs(k)) == 1:
                pairs += 1
                rows = list(_threshold_rows(m, k)[0])
                yield m, k, rng.sample(rows, min(30, len(rows)))

    def test_relative_error_and_order_in_s(self):
        errors = []
        for m, k, rows in self.sample():
            order, c0s, _ = _threshold_rows(m, k)
            c0 = dict(zip(order, c0s))
            big_c = exact_big_c(m, k)
            s = {row: min(k * row % (2 * m), -k * row % (2 * m)) for row in order}
            errors += [float(abs(c0[row] / (big_c / exact_alpha(m, s[row])) - 1)) for row in rows]
            # alpha does not increase with s, so c0 = C / alpha does not decrease
            by_s = sorted((s[row], c0[row]) for row in order)
            assert all(a[1] <= b[1] for a, b in zip(by_s, by_s[1:])), (m, k)
        assert len(errors) > 6000
        assert max(errors) <= 1e-15


class TestAnalysisFields:
    def test_presence_pattern(self):
        """c0 and r0 exist exactly for the threshold cases; r0 alone also for
        the dipping k>0 even-ray case, whose one zero lies beyond its minimum
        (the root finder splits only a pair at r0)."""
        for m, k in valid_pairs(11):
            p = validate(m, k, 0.8)
            for j in range(2 * m):
                a = analyze_ray(p, j)
                r0 = extremum_radius(a, 0.8)
                if a.case in (RayCase.POS_K_ODD_POS, RayCase.NEG_K_EVEN_POS):
                    assert r0 is not None and a.c0 is not None
                    assert a.c0 > 0 and r0 > 0
                elif a.case is RayCase.POS_K_EVEN_NEG:
                    assert r0 is not None and a.c0 is None
                else:
                    assert r0 is None and a.c0 is None

    def test_beta_overflow_leaves_c0_finite(self):
        """beta = c0^(-m/(m-k)) is e^712.4 on (2000, 1999) ray 1509 and would
        overflow; c0 = C / alpha does not."""
        a = analyze_ray(validate(2000, 1999, 1.0), 1509)
        assert a.case is RayCase.POS_K_ODD_POS
        assert math.isfinite(a.c0) and 0.69 < a.c0 < 0.71

    def test_analysis_is_the_same_at_every_c(self):
        """An analysis holds at every c: built at the least and the greatest
        c, at 1 and at the pair's least c0, every field but params agrees."""
        for m, k in valid_pairs(30):
            cs = [5e-324, 1.0, 1.7e308] + [th.c0 for th in thresholds(validate(m, k, 1.0))[:1]]
            for j in range(2 * m):
                first, *rest = (analyze_ray(validate(m, k, c), j)[1:] for c in cs)
                assert all(fields == first for fields in rest), (m, k, j)

    def test_counts_in_range(self):
        for m, k in valid_pairs(9):
            p = validate(m, k, 1.0)
            for j in range(2 * m):
                prof = analyze_ray(p, j).profile
                assert {prof.below, prof.at_threshold, prof.above} <= {0, 1, 2}


class TestThresholds:
    def test_independent_grid_maximization_flips_at_c0(self):
        """The extremal value of f over a dense radius grid changes sign across
        the closed-form c0 (no reliance on the library's r0)."""
        import numpy as np

        base = analyze_ray(validate(3, 1, 1.0), 1)
        r = np.exp(np.linspace(math.log(1e-6), math.log(50.0), 200_000))
        for c, expect_negative in ((base.c0 * 0.999, True), (base.c0 * 1.001, False)):
            extremal = float(np.max(-(r ** 3) + 2.0 * c * 0.5 * r - 1.0))
            assert (extremal < 0) == expect_negative

    def test_grouped_thresholds_even_k(self):
        """(5, 4): rays 3 and 7 share alpha = cos(2 pi/5) exactly, so they share
        one threshold; ray 5 (alpha = 1) has its own.  Two distinct values."""
        ths = thresholds(validate(5, 4, 1.0))
        assert [th.rays for th in ths] == [(5,), (3, 7)]
        assert math.isclose(ths[0].c0, 2.62144 ** (-1.0 / 5.0), rel_tol=1e-12)
        beta = (2 * math.cos(2 * math.pi / 5)) ** 5 * ((4 / 5) ** 4 - (4 / 5) ** 5)
        assert math.isclose(ths[1].c0, beta ** (-1.0 / 5.0), rel_tol=1e-12)

    def test_grouped_thresholds_negative_k(self):
        ths = thresholds(validate(5, -4, 1.0))
        assert [th.rays for th in ths] == [(0,), (2, 8)]
        beta0 = 2.0 ** (5 / 9) * ((4 / 5) ** (5 / 9) + (4 / 5) ** (-4 / 9))
        assert math.isclose(ths[0].c0, beta0 ** (-9.0 / 5.0), rel_tol=1e-12)
        beta1 = (2 * math.cos(2 * math.pi / 5)) ** (5 / 9) * (
            (4 / 5) ** (5 / 9) + (4 / 5) ** (-4 / 9)
        )
        assert math.isclose(ths[1].c0, beta1 ** (-9.0 / 5.0), rel_tol=1e-12)

    def test_no_thresholds_when_no_positive_alpha_candidates(self):
        assert thresholds(validate(2, 1, 1.0)) == []

    def test_sorted_and_consistent_with_per_ray_analysis(self):
        for m, k in valid_pairs(13):
            p = validate(m, k, 1.0)
            ths = thresholds(p)
            assert all(a.c0 < b.c0 for a, b in zip(ths, ths[1:]))
            for th in ths:
                for j in th.rays:
                    a = analyze_ray(p, j)
                    assert a.c0 == th.c0  # grouping is exact, not approximate


@st.composite
def ray_instance(draw):
    m = draw(st.integers(min_value=2, max_value=13))
    k = draw(st.sampled_from(valid_k_choices(m)))
    j = draw(st.integers(min_value=0, max_value=2 * m - 1))
    c = draw(st.floats(min_value=-3, max_value=3).map(lambda e: 10.0 ** e))
    return m, k, j, c


class TestBruteForceAgreement:
    @given(ray_instance())
    @settings(max_examples=150, deadline=None)
    def test_count_matches_dense_grid(self, inst):
        from hypothesis import assume

        m, k, j, c = inst
        p = validate(m, k, c)
        a = analyze_ray(p, j)
        # the dense grid cannot separate a pair closer than its spacing, so
        # stay off an immediate neighborhood of the tangency
        assume(a.c0 is None or abs(c - a.c0) > 1e-6 * a.c0)
        assert count_at(a, c) == brute_ray_count(m, k, c, j)
