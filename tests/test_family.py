"""Parameter validation, exact ray classification, and function evaluation."""
from __future__ import annotations

import cmath
import math
import random
import re
import sys
from array import array
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rayzeros import (
    DegreeOrderError,
    NonCoprimeError,
    NonPositiveCError,
    ParameterError,
    PoleAtOriginError,
    RayIndexError,
    Sign,
    ZeroKError,
    analyze_ray,
    classify_ray,
    evaluate,
    validate,
)
from rayzeros.family import _alpha_half, _radial_sum, alpha_from_residue, power_term, unit_direction

from conftest import ALPHA_ZERO_CUTOFF, mp_alpha, valid_pairs


class TestValidate:
    def test_accepts_polynomial_member(self):
        p = validate(5, 4, 1.0)
        assert (p.m, p.k, p.c) == (5, 4, 1.0)

    def test_accepts_pole_member(self):
        p = validate(5, -4, 0.2)
        assert (p.m, p.k, p.c) == (5, -4, 0.2)

    def test_rejects_common_factor(self):
        with pytest.raises(NonCoprimeError):
            validate(6, 4, 1.0)

    def test_rejects_degree_order(self):
        with pytest.raises(DegreeOrderError):
            validate(3, 3, 1.0)
        with pytest.raises(DegreeOrderError):
            validate(3, -5, 1.0)

    def test_rejects_zero_k(self):
        with pytest.raises(ZeroKError):
            validate(3, 0, 1.0)

    def test_rejects_bad_c(self):
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NonPositiveCError):
                validate(3, 1, c)

    def test_accepts_smallest_degree(self):
        # m = 2 satisfies every invariant; nothing special-cases it
        assert validate(2, 1, 1.0).m == 2

    def test_accepts_integral_degrees_of_any_type(self):
        for m, k, want in ((5.0, 4.0, (5, 4)), (np.int64(5), np.int32(-4), (5, -4)), (np.float64(5.0), -4, (5, -4))):
            p = validate(m, k, 1.0)
            assert (p.m, p.k) == want and (type(p.m), type(p.k)) == (int, int)

    @pytest.mark.parametrize(
        "m, k, shown",
        [
            (5.5, 4, "m=5.5"),
            (5, 4.9, "k=4.9"),
            (5, -4.1, "k=-4.1"),
            (math.inf, 4, "m=inf"),
            (5, math.inf, "k=inf"),
            (math.nan, 4, "m=nan"),
            (5, -math.inf, "k=-inf"),
            (np.float64(5.5), 4, f"m={np.float64(5.5)!r}"),
            ("5", 4, "m='5'"),
            (None, 4, "m=None"),
        ],
    )
    def test_rejects_non_integral_degree(self, m, k, shown):
        with pytest.raises(ParameterError, match=re.escape(shown)) as exc:
            validate(m, k, 1.0)
        assert type(exc.value) is ParameterError


class TestClassifyRay:
    def test_ray_zero_is_positive_even(self):
        d = classify_ray(validate(5, 4, 1.0), 0)
        assert d.parity == 0
        assert d.alpha_sign == Sign.POSITIVE
        assert d.residue == 0

    def test_wrapped_residue_positive(self):
        # j=5: t = 20 mod 10 = 0, cos(4pi) = 1 despite the odd parity
        d = classify_ray(validate(5, 4, 1.0), 5)
        assert d.parity == 1
        assert d.alpha_sign == Sign.POSITIVE
        assert math.isclose(float(mp_alpha(5, 4, 5)), 1.0)

    def test_exact_zero_on_even_m(self):
        d = classify_ray(validate(2, 1, 1.0), 1)
        assert d.alpha_sign == Sign.ZERO

    def test_index_range(self):
        p = validate(5, 4, 1.0)
        with pytest.raises(RayIndexError):
            classify_ray(p, -1)
        with pytest.raises(RayIndexError):
            classify_ray(p, 10)

    @pytest.mark.parametrize("j", [3.7, 3.0, "3", None])
    def test_rejects_non_integer_index(self, j):
        p = validate(5, 4, 1.0)
        with pytest.raises(RayIndexError, match="not an integer"):
            classify_ray(p, j)
        with pytest.raises(RayIndexError, match="not an integer"):
            analyze_ray(p, j)

    def test_accepts_numpy_integer_index(self):
        p = validate(5, 4, 1.0)
        d = classify_ray(p, np.int64(3))
        assert d == classify_ray(p, 3) and type(d.j) is int
        assert analyze_ray(p, np.int64(3)) == analyze_ray(p, 3)

    def test_angle(self):
        d = classify_ray(validate(5, 4, 1.0), 3)
        assert math.isclose(d.angle, 3 * math.pi / 5, rel_tol=1e-15)


def t_space_sign(m, t):
    """alpha's sign from the unfolded residue t = k*j mod 2m: positive iff
    2t < m or 2t > 3m, zero iff 2t = m or 3m.  The reference for classify_ray's
    rule on the folded residue."""
    d = 2 * t
    if d < m or d > 3 * m:
        return Sign.POSITIVE
    if d == m or d == 3 * m:
        return Sign.ZERO
    return Sign.NEGATIVE


class TestSignRuleOnFoldedResidue:
    """classify_ray reads alpha's sign from the folded residue s = min(t, 2m - t);
    on every ray it must equal the rule on t itself."""

    @staticmethod
    def check(m, k, js):
        p = validate(m, k, 1.0)
        for j in js:
            assert classify_ray(p, j).alpha_sign is t_space_sign(m, (k * j) % (2 * m)), (m, k, j)

    def test_every_ray_small_m(self):
        for m, k in valid_pairs(60):
            self.check(m, k, range(2 * m))

    def test_seeded_rays_large_m(self):
        rng = random.Random(17)
        seen = set()
        for _ in range(300):
            m = rng.randint(61, 10**5)
            k = rng.choice((1, -1)) * rng.choice([a for a in range(1, m, 1 + m // 500) if math.gcd(m, a) == 1])
            js = [rng.randrange(2 * m) for _ in range(20)]
            if m % 2 == 0:  # the two rays with 2t = m and 2t = 3m, where alpha = 0
                js += [m // 2 * pow(k, -1, 2 * m) % (2 * m), 3 * m // 2 * pow(k, -1, 2 * m) % (2 * m)]
            self.check(m, k, js)
            seen.update(t_space_sign(m, (k * j) % (2 * m)) for j in js)
        assert seen == set(Sign)

    @pytest.mark.parametrize("k", [9999, -9999])
    def test_every_ray_of_m_10000(self, k):
        self.check(10000, k, range(20000))


@st.composite
def family_and_ray(draw, max_m=10_000):
    m = draw(st.integers(min_value=2, max_value=max_m))
    a = draw(st.integers(min_value=1, max_value=m - 1))
    if math.gcd(m, a) != 1:
        a = 1  # always coprime; keeps rejection rate at zero
    k = a * draw(st.sampled_from([1, -1]))
    j = draw(st.integers(min_value=0, max_value=2 * m - 1))
    return m, k, j


class TestClassificationExactness:
    @given(family_and_ray())
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_high_precision(self, mkj):
        """Integer classification agrees with 50-digit cosines everywhere."""
        m, k, j = mkj
        d = classify_ray(validate(m, k, 1.0), j)
        a = mp_alpha(m, k, j)
        if abs(a) > 1e-12:
            expected = Sign.POSITIVE if a > 0 else Sign.NEGATIVE
            assert d.alpha_sign == expected
        else:
            # for m <= 1e4 the smallest nonzero |alpha| is ~7.9e-5, so this
            # branch is the exact rational zero 2t in {m, 3m}
            t = (k * j) % (2 * m)
            assert 2 * t in (m, 3 * m)
            assert d.alpha_sign == Sign.ZERO

    @given(family_and_ray(max_m=2000))
    @settings(max_examples=200, deadline=None)
    def test_alpha_value_close_to_high_precision(self, mkj):
        m, k, j = mkj
        t = (k * j) % (2 * m)
        got = alpha_from_residue(m, t)
        want = mp_alpha(m, k, j)
        if abs(want) < ALPHA_ZERO_CUTOFF:
            assert got == 0.0
        else:
            # exact folding keeps the error at a couple of ulps even for tiny alpha
            assert math.isclose(got, float(want), rel_tol=1e-13)

    def test_zero_alpha_only_for_even_m(self):
        for m in range(2, 40):
            for k in range(1, m):
                if math.gcd(m, k) != 1:
                    continue
                p = validate(m, k, 1.0)
                zeros = [j for j in range(2 * m) if classify_ray(p, j).alpha_sign == Sign.ZERO]
                if m % 2 == 1:
                    assert zeros == []
                else:
                    assert len(zeros) == 2


class TestAlphaHalf:
    """The whole-range alpha pass of all_zeros and the threshold rows and the
    scalar are two spellings of one formula; float.hex tells every ulp apart
    and -0.0 from 0.0."""

    @staticmethod
    def assert_equal_to_scalar(m):
        half = _alpha_half(m)
        assert [a.hex() for a in half] == [alpha_from_residue(m, s).hex() for s in range(m // 2 + 1)], m
        assert half[0].hex() == (1.0).hex()
        if m % 2 == 0:
            assert half[-1].hex() == (0.0).hex()

    def test_every_small_m(self):
        for m in range(2, 401):
            self.assert_equal_to_scalar(m)

    def test_seeded_large_m(self):
        rng = random.Random(16)
        for m in [rng.randint(401, 100_000) for _ in range(20)] + [100_000, 99_999, 65_536]:
            self.assert_equal_to_scalar(m)

    def test_even_entries_at_2m_are_the_pass_at_m(self):
        """all_zeros takes its cosines from the sines' pass: alpha(2m, 2s) = alpha(m, s),
        since both sides scale pi s and the divisor by the same power of 2."""
        for m in list(range(2, 3000)) + [10000, 10001, 65536, 99999, 100003]:
            assert array("d", _alpha_half(2 * m)[::2]).tobytes() == array("d", _alpha_half(m)).tobytes(), m

    def test_strided_pass_is_the_slice_of_the_whole_pass(self):
        """The threshold rows take alpha at s = q, q + 2, ... from a strided pass of the
        same two expressions, equal bit for bit to the whole pass's entries there."""
        for m in range(2, 3000):
            half = _alpha_half(m)
            for q in (0, 1):
                assert array("d", _alpha_half(m, q, 2)).tobytes() == array("d", half[q::2]).tobytes(), (m, q)


class TestUnitDirection:
    def test_real_axis_exact(self):
        assert unit_direction(5, 0) == complex(1.0, 0.0)
        assert unit_direction(5, 5) == complex(-1.0, 0.0)

    def test_imaginary_axis_exact(self):
        assert unit_direction(2, 1) == complex(0.0, 1.0)
        assert unit_direction(2, 3) == complex(0.0, -1.0)
        assert unit_direction(4, 2) == complex(0.0, 1.0)

    def test_unit_modulus(self):
        for m, j in ((7, 3), (9, 11), (12, 17)):
            assert math.isclose(abs(unit_direction(m, j)), 1.0, rel_tol=1e-15)

    def test_conjugate_rays(self):
        for m in (5, 8):
            for j in range(1, m):
                assert unit_direction(m, 2 * m - j) == unit_direction(m, j).conjugate()


class TestEvaluate:
    def test_at_one_polynomial(self):
        p = validate(5, 4, 0.7)
        assert evaluate(p, 1.0) == complex(2 * 0.7, 0.0)

    def test_conjugate_pair_cancels(self):
        # z^2 = -1 and the middle terms cancel: p(i) = -2 (generic evaluation
        # keeps a ~1e-16 imaginary residue; exact zeros belong to the on-ray path)
        p = validate(2, 1, 1.0)
        assert cmath.isclose(evaluate(p, 1j), complex(-2.0, 0.0), rel_tol=0, abs_tol=1e-12)

    def test_at_one_pole_family(self):
        p = validate(5, -4, 0.2)
        z = evaluate(p, 1.0)
        assert math.isclose(z.real, 0.4, rel_tol=1e-15)
        assert z.imag == 0.0

    def test_origin_is_pole_for_negative_k(self):
        with pytest.raises(PoleAtOriginError):
            evaluate(validate(5, -4, 0.2), 0.0)

    def test_origin_is_minus_one_for_positive_k(self):
        assert evaluate(validate(5, 4, 3.0), 0.0) == complex(-1.0, 0.0)

    def test_tiny_radius_negative_k_is_signed_infinite(self):
        p = validate(5, -4, 0.2)
        z = evaluate(p, complex(1e-300, 0.0))
        assert z.real == math.inf  # middle term dominates with cos(0) = 1
        z = evaluate(p, complex(-1e-300, 0.0))
        assert math.isinf(z.real)

    def test_huge_radius_does_not_crash(self):
        p = validate(5, 4, 1.0)
        z = evaluate(p, complex(1e80, 1e80))
        assert math.isinf(z.real) or math.isinf(z.imag)

    def test_infinite_modulus_with_nan_angle_is_nan(self):
        z = evaluate(validate(5, 4, 1.0), complex(math.inf, math.nan))
        assert math.isnan(z.real) and math.isnan(z.imag)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_nan_on_an_axis_is_nan(self, z):
        """A nan part with a zero other part has a nan angle: no axis multiple of
        pi/2 to round to, so the generic trigonometry gives nan."""
        w = evaluate(validate(5, 4, 1.0), z)
        assert math.isnan(w.real) and math.isnan(w.imag)

    @pytest.mark.parametrize("m, k", [(4, 3), (4, -1), (12, -1), (12, 5), (5, 4), (5, -2), (13, 6), (13, -12)])
    @pytest.mark.parametrize("c", [1e-300, 1.0, 5.516689610200797e134, 1e300])
    def test_exact_on_the_axes(self, m, k, c):
        """At +-r and +-ir the angle is a multiple of pi/2, so the cosines and the
        sine are exact and p(z) is the 60-digit value within rounding of its terms."""
        p = validate(m, k, c)
        eps = sys.float_info.epsilon
        with mpmath.workdps(60):
            for r in (0.5, 1.0, 1.3):
                for z in (complex(r, 0.0), complex(-r, 0.0), complex(0.0, r), complex(0.0, -r)):
                    got = evaluate(p, z)
                    w = mpmath.mpc(z.real, z.imag)
                    exact = w**m + c * (w**k + mpmath.conj(w) ** k) - 1
                    scale = r**m + 2.0 * c * r**k + 1.0
                    assert abs(got.real - exact.real) <= 4 * eps * scale, (z, got, exact)
                    assert abs(got.imag - exact.imag) <= 2 * eps * r**m, (z, got, exact)

    @given(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.sampled_from([(5, 4), (5, -4), (3, 2), (7, -2), (2, 1)]),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_conjugation_symmetry(self, z, mk, c):
        p = validate(mk[0], mk[1], c)
        lhs = evaluate(p, z.conjugate())
        rhs = evaluate(p, z).conjugate()
        assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def composed_evaluate(p, z):
    """evaluate with each part through power_term: r^m taken once per part."""
    m, k, c = p
    r, theta = cmath.polar(z)
    if (z.real and z.imag) or math.isnan(theta):
        cos_m, cos_k, sin_m = math.cos(m * theta), math.cos(k * theta), math.sin(m * theta)
    else:
        q = round(theta / (0.5 * math.pi))
        cos_m, cos_k, sin_m = (alpha_from_residue(2, n) for n in (m * q, k * q, m * q - 1))
    return complex(_radial_sum(cos_m, c * cos_k, r, m, k), power_term(sin_m, r, m))


def evaluate_route(p, z) -> str:
    """The path evaluate takes at z, decided here from the factors and powers alone."""
    m, k, c = p
    r, theta = cmath.polar(z)
    if not ((z.real and z.imag) or math.isnan(theta)):
        return "axis"
    if not (math.cos(m * theta) and c * math.cos(k * theta) and math.sin(m * theta)):
        return "zero factor"
    try:
        rm = r ** m
    except OverflowError:
        return "r^m overflows"
    if rm == math.inf:
        return "r^m is inf"
    try:
        r ** k
    except OverflowError:
        return "r^k overflows"
    return "nan" if math.isnan(rm) else "shared"


def complex_bits(w: complex) -> tuple[str, str]:
    return w.real.hex(), w.imag.hex()


class TestEvaluateSharedPower:
    """Off the axes evaluate takes r^m once for both parts.  On seeded z of
    every route, shared and fallback, it must give the composition's bits."""

    @staticmethod
    def points(rng, m, k):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radii = [math.exp(rng.uniform(-5.0, 5.0) / m), math.exp(rng.uniform(-700.0, 700.0) / m)]
        radii.append(math.exp(rng.uniform(710.0, 740.0) / m))  # r^m beyond the float range
        if k < 0:
            radii.append(math.exp(-rng.uniform(710.0, 740.0) / -k))  # r^k beyond the float range
        points = [cmath.rect(r, theta) for r in radii]
        r = radii[0]
        return points + [complex(r, 0.0), complex(-r, 0.0), complex(0.0, r), complex(0.0, -r)]

    def test_bit_for_bit_on_every_route(self):
        rng = random.Random(3838)
        routes = Counter()
        cases = 0
        while cases < 400:
            m = int(math.exp(rng.uniform(math.log(2), math.log(10_000))))
            k = rng.choice((1, -1)) * rng.randrange(1, m)
            if math.gcd(m, abs(k)) != 1:
                continue
            cases += 1
            c = 5e-324 if cases % 50 == 0 else 10.0 ** rng.uniform(-300.0, 300.0)
            p = validate(m, k, c)
            points = self.points(rng, m, k)
            points += [complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, math.inf)]
            # general z at angle +-0.0, where the sine is a signed zero
            points += [complex(math.inf, 1.0), complex(1e10, 1e-320), complex(1e10, -1e-320)]
            for z in points:
                if z == 0:
                    continue
                routes[evaluate_route(p, z)] += 1
                assert complex_bits(evaluate(p, z)) == complex_bits(composed_evaluate(p, z)), (m, k, c, z)
        assert set(routes) == {"axis", "zero factor", "r^m overflows", "r^m is inf", "r^k overflows", "nan", "shared"}
        assert routes["shared"] > 500
