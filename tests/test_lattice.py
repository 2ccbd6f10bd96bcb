"""Successive minima, point counts, congruence counts and reconstruction."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootsums.lattice import (
    Box2D,
    Lattice2D,
    _reduce,
    congruence_count,
    dichotomy_sweep,
    lattice_points_in_box,
    minkowski_check,
    point_count_check,
    rational_reconstruction,
    reconstruction_vector,
    successive_minima,
)
from rootsums.modular import inv_mod


def brute_minima(lat: Lattice2D, box: Box2D) -> tuple[float, float]:
    """Oracle: sort every nonzero lattice point of t * box by gauge.

    t, the larger gauge of the two basis vectors, bounds lambda_2, so the
    scan holds both minima; membership is tested on (x, y) directly.
    """
    t = max(box.norm(lat.b1), box.norm(lat.b2))
    big_x, big_y = int(t * box.h) + 1, int(t * box.H) + 1
    (a, b), (c, d) = lat.b1, lat.b2
    det = a * d - b * c
    x, y = np.meshgrid(np.arange(-big_x, big_x + 1), np.arange(-big_y, big_y + 1), indexing="ij")
    x, y = x.ravel(), y.ravel()
    keep = ((x * d - y * c) % det == 0) & ((a * y - b * x) % det == 0) & ((x != 0) | (y != 0))
    vecs = sorted(zip(x[keep].tolist(), y[keep].tolist()), key=box.norm)
    lam1 = box.norm(vecs[0])
    v1 = vecs[0]
    lam2 = next(
        box.norm(v) for v in vecs if v1[0] * v[1] - v1[1] * v[0] != 0
    )
    return lam1, lam2


def gauge(box: Box2D, v: tuple[int, int]) -> Fraction:
    """The box gauge of v as an exact rational."""
    return max(abs(v[0]) / Fraction(box.h), abs(v[1]) / Fraction(box.H))


def centered(r: int, q: int) -> int:
    r %= q
    return r - q if r > q // 2 else r


half_widths = st.one_of(
    st.integers(min_value=1, max_value=20), st.floats(min_value=0.1, max_value=20)
)
coords = st.integers(min_value=-12, max_value=12)


class TestSuccessiveMinima:
    def test_standard_unit_box(self):
        assert successive_minima(Lattice2D.standard(), Box2D(1, 1)) == (1.0, 1.0)

    def test_standard_wide_box(self):
        assert successive_minima(Lattice2D.standard(), Box2D(2, 1)) == (0.5, 1.0)

    def test_congruence_small(self):
        lat = Lattice2D.congruence(2, 5)
        got = successive_minima(lat, Box2D(1, 1))
        assert got == brute_minima(lat, Box2D(1, 1))

    @given(
        st.sampled_from([11, 13, 17, 23]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_against_brute_force(self, q, data):
        s = data.draw(st.integers(min_value=1, max_value=q - 1))
        h = data.draw(st.integers(min_value=1, max_value=2 * q))
        H = data.draw(st.integers(min_value=1, max_value=2 * q))
        lat = Lattice2D.congruence(s, q)
        box = Box2D(h, H)
        lam = successive_minima(lat, box)
        assert lam == brute_minima(lat, box)
        assert lam[0] <= lam[1]

    @given(coords, coords, coords, coords, half_widths, half_widths)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bases_against_brute_force(self, a, b, c, d, h, H):
        assume(a * d - b * c != 0)
        lat, box = Lattice2D((a, b), (c, d)), Box2D(h, H)
        assert successive_minima(lat, box) == brute_minima(lat, box)

    @given(coords, coords, coords, coords, half_widths, half_widths)
    @settings(max_examples=200, deadline=None)
    def test_reduced_basis(self, a, b, c, d, h, H):
        assume(a * d - b * c != 0)
        lat, box = Lattice2D((a, b), (c, d)), Box2D(h, H)
        b1, b2 = _reduce(lat, box)
        assert Lattice2D(b1, b2).det == lat.det
        plus = (b2[0] + b1[0], b2[1] + b1[1])
        minus = (b2[0] - b1[0], b2[1] - b1[1])
        assert gauge(box, b1) <= gauge(box, b2) <= min(gauge(box, plus), gauge(box, minus))

    def test_pinned_boxes(self):
        assert successive_minima(Lattice2D.standard(), Box2D(10**6, 1)) == (1e-6, 1.0)
        assert successive_minima(Lattice2D.standard(), Box2D(0.5, 0.5)) == (2.0, 2.0)

    def test_huge_unimodular_basis(self):
        n = 10**12
        lat = Lattice2D((n + 1, n), (n, n - 1))
        assert successive_minima(lat, Box2D(1, 1)) == (1.0, 1.0)

    @pytest.mark.parametrize("h", [0, -1, math.inf, math.nan])
    def test_box_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError):
            Box2D(h, 1)
        with pytest.raises(ValueError):
            Box2D(1, h)

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError):
            Lattice2D((2, 4), (1, 2))


class TestMinkowski:
    def test_standard(self):
        report = minkowski_check(Lattice2D.standard(), Box2D(1, 1))
        assert report["passed"] and report["lhs"] == 1.0 and report["rhs"] == 2.0

    def test_degenerate_aspect(self):
        assert minkowski_check(Lattice2D.standard(), Box2D(10**6, 1))["passed"]

    @given(st.sampled_from([101, 211]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_congruence_samples(self, q, data):
        s = data.draw(st.integers(min_value=1, max_value=q - 1))
        assert minkowski_check(Lattice2D.congruence(s, q), Box2D(q, q))["passed"]


class TestPointCount:
    def test_grid_counts(self):
        assert lattice_points_in_box(Lattice2D.standard(), Box2D(1, 1)) == 9
        assert lattice_points_in_box(Lattice2D.standard(), Box2D(0.5, 0.5)) == 1

    def test_count_bound(self):
        report = point_count_check(Lattice2D.standard(), Box2D(1, 1))
        assert report["count"] == 9 and report["bound"] == pytest.approx(15.0)
        assert report["passed"]

    def test_membership_oracle(self):
        q, s = 11, 3
        lat = Lattice2D.congruence(s, q)
        box = Box2D(4, 4)
        expected = sum(
            1
            for x, y in product(range(-4, 5), repeat=2)
            if (x - y * s) % q == 0
        )
        assert lattice_points_in_box(lat, box) == expected

    def test_invariance_under_basis_changes(self):
        lat = Lattice2D.congruence(7, 23)
        box = Box2D(9, 5)
        base = lattice_points_in_box(lat, box)
        swapped = Lattice2D(lat.b2, lat.b1)
        negated = Lattice2D((-lat.b1[0], -lat.b1[1]), lat.b2)
        assert lattice_points_in_box(swapped, box) == base
        assert lattice_points_in_box(negated, box) == base


class TestCongruenceCount:
    def test_diagonal(self):
        assert congruence_count(1, (1, 3), (1, 3), 7) == 3

    def test_empty_interval(self):
        assert congruence_count(3, (1, 5), (4, 3), 11) == 0

    def test_negated(self):
        assert congruence_count(10, (-3, -1), (1, 3), 11) == 3

    @given(st.sampled_from([7, 11, 13, 29]), st.data())
    @settings(max_examples=60)
    def test_brute_force(self, q, data):
        s = data.draw(st.integers(min_value=0, max_value=q - 1))
        x_lo = data.draw(st.integers(min_value=-q, max_value=q))
        x_hi = data.draw(st.integers(min_value=x_lo, max_value=q))
        y_lo = data.draw(st.integers(min_value=-q, max_value=q))
        y_hi = data.draw(st.integers(min_value=y_lo, max_value=q))
        expected = sum(
            1
            for y in range(y_lo, y_hi + 1)
            for x in range(x_lo, x_hi + 1)
            if (x - y * s) % q == 0
        )
        assert congruence_count(s, (x_lo, x_hi), (y_lo, y_hi), q) == expected


class TestReconstruction:
    def test_identity(self):
        assert rational_reconstruction(1, 1, 1, 101) == (1, 1)
        assert rational_reconstruction(1, 5, 9, 101) == (1, 1)

    def test_constructed_instance(self):
        s = 2 * inv_mod(3, 101) % 101
        assert rational_reconstruction(s, 3, 2, 101) == (3, 2)

    def test_generic_residue_fails_tight_bounds(self):
        assert rational_reconstruction(5, 1, 1, 101) is None
        assert rational_reconstruction(101 - 1, 1, 1, 101) == (1, -1)

    def test_requires_invertible(self):
        with pytest.raises(ValueError):
            rational_reconstruction(0, 3, 3, 7)

    @given(st.sampled_from([101, 211, 499]), st.data())
    @settings(max_examples=60)
    def test_returned_pair_is_valid_and_minimal(self, q, data):
        s = data.draw(st.integers(min_value=1, max_value=q - 1))
        bound_a = data.draw(st.integers(min_value=1, max_value=30))
        bound_b = data.draw(st.integers(min_value=1, max_value=30))
        got = rational_reconstruction(s, bound_a, bound_b, q)
        half = q // 2
        # brute force over the same box
        best = None
        for a in range(1, bound_a + 1):
            b = a * s % q
            if b > half:
                b -= q
            if abs(b) <= bound_b:
                best = (a, b)
                break
        assert got == best
        if got is not None:
            a, b = got
            assert (b - a * s) % q == 0


class TestDichotomy:
    def test_sweep_is_deterministic(self):
        one = dichotomy_sweep(101, 40, seed=5)
        two = dichotomy_sweep(101, 40, seed=5)
        assert one == two

    def test_reconstruction_vector_solves_congruence(self):
        vec = reconstruction_vector(7, Box2D(10, 10), 101)
        assert vec is not None
        b, a = vec
        assert (b - a * 7) % 101 == 0 and a % 101 != 0

    @given(st.sampled_from([11, 13, 101, 499]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_vector_against_brute_force(self, q, data):
        s = data.draw(st.integers(min_value=1, max_value=q - 1))
        box = Box2D(data.draw(half_widths), data.draw(half_widths))
        b, a = reconstruction_vector(s, box, q)
        assert (b - a * s) % q == 0 and a > 0 and a % q != 0
        # b depends only on a mod q, so each class of a is best at centred representatives
        best = min(gauge(box, (centered(k * s, q), centered(k, q))) for k in range(1, q))
        assert gauge(box, (b, a)) == best

    def test_sampled_cells_within_frozen_constant(self):
        from rootsums import calibration

        rows = dichotomy_sweep(499, 200, seed=11)
        limit = calibration.frozen("congruence_dichotomy")
        assert all(r["needed"] <= limit for r in rows)
        assert all(r["minkowski_ok"] for r in rows)
