"""Parameter validation, exact ray classification, and function evaluation."""
from __future__ import annotations

import cmath
import math
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from rayzeros import (
    DegreeOrderError,
    NonCoprimeError,
    NonPositiveCError,
    PoleAtOriginError,
    RayIndexError,
    Sign,
    ZeroKError,
    classify_ray,
    evaluate,
    validate,
)
from rayzeros.family import alpha_from_residue, unit_direction

from conftest import ALPHA_ZERO_CUTOFF, mp_alpha


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

    def test_angle(self):
        d = classify_ray(validate(5, 4, 1.0), 3)
        assert math.isclose(d.angle, 3 * math.pi / 5, rel_tol=1e-15)


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
