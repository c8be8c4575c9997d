"""Half-plane counting formula and the parity census of omega powers."""
from __future__ import annotations

import math

import pytest

from rayzeros import ParityCensus, Sign, census, classify_ray, group_order, positive_halfplane_count, validate

from conftest import brute_halfplane_count, valid_pairs


class TestPositiveHalfplaneCount:
    @pytest.mark.parametrize("q,expected", [(5, 3), (10, 5), (14, 7)])
    def test_known_values(self, q, expected):
        # expected values independently frozen from the exact rational
        # enumeration in conftest.brute_halfplane_count
        assert brute_halfplane_count(q) == expected
        assert positive_halfplane_count(q) == expected

    def test_matches_enumeration_small_range(self):
        for q in range(1, 120):
            assert positive_halfplane_count(q) == brute_halfplane_count(q)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            positive_halfplane_count(0)


class TestGroupOrder:
    def test_odd_k_full_order(self):
        assert group_order(validate(5, 3, 1.0)) == 10
        assert group_order(validate(8, -3, 1.0)) == 16

    def test_even_k_half_order(self):
        assert group_order(validate(5, 4, 1.0)) == 5
        assert group_order(validate(5, -4, 1.0)) == 5


class TestCensus:
    def test_example_even_k(self):
        assert census(validate(5, 4, 1.0)) == ParityCensus(
            even_pos=3, even_zero=0, even_neg=2, odd_pos=3, odd_zero=0, odd_neg=2
        )

    def test_example_odd_k(self):
        assert census(validate(7, 1, 1.0)) == ParityCensus(
            even_pos=3, even_zero=0, even_neg=4, odd_pos=4, odd_zero=0, odd_neg=3
        )

    def test_example_boundary_rays(self):
        cen = census(validate(2, 1, 1.0))
        assert cen.even_zero + cen.odd_zero == 2

    def test_row_sums(self):
        for m, k in valid_pairs(40):
            cen = census(validate(m, k, 1.0))
            assert cen.even_pos + cen.even_zero + cen.even_neg == m
            assert cen.odd_pos + cen.odd_zero + cen.odd_neg == m

    def test_independent_of_c(self):
        for c in (1e-6, 0.3, 7.0, 1e6):
            assert census(validate(9, -2, c)) == census(validate(9, -2, 1.0))

    def test_positive_counts_tie_to_halfplane_formula(self):
        """Odd k: the 2m-th roots split between parities; even k: each parity
        sees every m-th root exactly once."""
        for m, k in valid_pairs(80):
            cen = census(validate(m, k, 1.0))
            if k % 2:
                assert cen.even_pos + cen.odd_pos == positive_halfplane_count(2 * m)
            else:
                assert cen.even_pos == cen.odd_pos == positive_halfplane_count(m)


def reference_census(params):
    """Tally of all 2m rays by parity and exact alpha sign, one classify_ray per ray."""
    counts = {(p, s): 0 for p in (0, 1) for s in Sign}
    for j in range(2 * params.m):
        ray = classify_ray(params, j)
        counts[ray.parity, ray.alpha_sign] += 1
    return ParityCensus(
        *(counts[p, s] for p in (0, 1) for s in (Sign.POSITIVE, Sign.ZERO, Sign.NEGATIVE))
    )


class TestCensusFromTable:
    """census tallies the ray table's m+1 rows; it must equal the 2m-ray tally."""

    def test_every_pair_up_to_60(self):
        for m, k in valid_pairs(60):
            p = validate(m, k, 1.0)
            assert census(p) == reference_census(p), (m, k)

    @pytest.mark.parametrize("m,k", [(2048, 1023), (4093, -2000), (10, 3), (10, -3)])
    def test_large_and_boundary_pairs(self, m, k):
        p = validate(m, k, 1.0)
        cen = census(p)
        assert cen == reference_census(p)
        if m % 2 == 0:
            assert cen.even_zero + cen.odd_zero > 0  # even m has alpha = 0 rays


class TestStructuralFacts:
    def test_odd_k_adjacent_roots_alternate_parity(self):
        """Walking the 2m-th roots in angular order alternates exponent parity."""
        for m in range(2, 201):
            for k in range(1, m, 2):
                if math.gcd(m, k) != 1:
                    continue
                inv = pow(k, -1, 2 * m)
                parities = [((inv * s) % (2 * m)) % 2 for s in range(2 * m)]
                assert all(parities[s] != parities[s - 1] for s in range(1, 2 * m))

    def test_even_k_pairs_opposite_parity(self):
        """Even k (m odd): omega^j = omega^{j+m} with j, j+m of opposite parity."""
        for m, k in valid_pairs(120):
            if k % 2 or k < 0:
                continue
            for j in range(m):
                assert (k * j) % (2 * m) == (k * (j + m)) % (2 * m)
                assert j % 2 != (j + m) % 2
