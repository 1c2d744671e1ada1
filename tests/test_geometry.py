"""Pseudohyperbolic geometry: metric laws, disks, Carleson sets, lattices."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_lab import (
    BoundaryLadder,
    CarlesonSet,
    DomainError,
    Lattice,
    PseudoDisk,
    audit_grid,
    boundary_ladder,
    build_lattice,
    mobius,
    pseudo_add,
    pseudo_disk,
    pseudo_distance,
)

disc_points = st.complex_numbers(max_magnitude=0.97, allow_infinity=False, allow_nan=False)


class TestMetric:
    def test_known_value(self):
        # d(0.5, 0) = 0.5; d(0.5, -0.5) = 1 / (1 + 0.25) = 0.8
        assert pseudo_distance(0.5, 0.0) == pytest.approx(0.5)
        assert pseudo_distance(0.5, -0.5) == pytest.approx(0.8)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            pseudo_distance(1.0, 0.0)

    @given(disc_points, disc_points)
    def test_symmetry(self, z, w):
        assert pseudo_distance(z, w) == pytest.approx(pseudo_distance(w, z), abs=1e-12)

    @given(disc_points, disc_points)
    def test_range(self, z, w):
        d = pseudo_distance(z, w)
        assert 0.0 <= d < 1.0

    @given(disc_points, disc_points, disc_points)
    @settings(max_examples=200)
    def test_strong_triangle_inequality(self, z, w, zeta):
        a = pseudo_distance(z, zeta)
        b = pseudo_distance(zeta, w)
        assert pseudo_distance(z, w) <= pseudo_add(a, b) + 1e-12

    @given(disc_points, disc_points, disc_points)
    @settings(max_examples=200)
    def test_mobius_invariance(self, a, z, w):
        d0 = pseudo_distance(z, w)
        d1 = pseudo_distance(mobius(a, z), mobius(a, w))
        assert d1 == pytest.approx(d0, abs=1e-9)


class TestMobius:
    @given(disc_points, disc_points)
    def test_involution(self, a, z):
        assert mobius(a, mobius(a, z)) == pytest.approx(z, abs=1e-12)

    @given(disc_points)
    def test_swaps_zero_and_a(self, a):
        assert mobius(a, 0.0) == pytest.approx(a)
        assert abs(mobius(a, a)) < 1e-12


class TestPseudoDisk:
    def test_euclidean_parameters(self):
        # Delta(0.5, 0.5): center (1-r^2) z / (1-r^2 |z|^2), radius r(1-|z|^2)/(1-r^2|z|^2)
        d = pseudo_disk(0.5, 0.5)
        denom = 1.0 - 0.25 * 0.25
        assert d.euclid_center == pytest.approx(0.75 * 0.5 / denom)
        assert d.euclid_radius == pytest.approx(0.5 * 0.75 / denom)

    def test_centered_disk_is_euclidean(self):
        d = pseudo_disk(0.0, 0.3)
        assert d.euclid_center == 0.0
        assert d.euclid_radius == pytest.approx(0.3)

    @given(disc_points, st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=100)
    def test_boundary_points_at_distance_r(self, z, r):
        d = pseudo_disk(z, r)
        for w in d.boundary_points(8):
            assert pseudo_distance(z, w) == pytest.approx(r, abs=1e-9)

    def test_contains(self):
        d = pseudo_disk(0.4, 0.3)
        assert d.contains(0.4)
        assert not d.contains(-0.4)

    def test_invalid_radius(self):
        with pytest.raises(DomainError):
            pseudo_disk(0.0, 1.5)


class TestCarlesonSet:
    def test_anchor_zero_is_whole_disc(self):
        s = CarlesonSet(0.0)
        assert s.contains(0.9j)

    def test_membership(self):
        # S(a) contains a and hugs the boundary near a / |a|
        s = CarlesonSet(0.5)
        assert s.contains(0.5)
        assert s.contains(0.9)
        assert not s.contains(-0.5)

    @given(st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9, allow_infinity=False, allow_nan=False))
    def test_anchor_inside(self, a):
        assert CarlesonSet(a).contains(a)


class TestLattice:
    def test_certificates(self, lattice_small):
        lat = lattice_small
        assert lat.min_separation() >= lat.radius / 2.0 - 1e-12
        grid = audit_grid(2000, lat.r_max)
        assert lat.covering_fraction(grid) == 1.0
        assert lat.multiplicity(grid) <= lat.multiplicity_bound

    def test_deterministic(self):
        a = build_lattice(0.5, 0.8)
        b = build_lattice(0.5, 0.8)
        assert np.array_equal(a.points, b.points)

    def test_json_round_trip(self, lattice_small):
        text = lattice_small.to_json()
        back = Lattice.from_json(text)
        assert np.array_equal(back.points, lattice_small.points)
        assert back.to_json() == text

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            build_lattice(-0.1)
        with pytest.raises(DomainError):
            build_lattice(0.3, 1.0)


class TestBoundaryLadder:
    def test_dyadic_radii(self):
        lad = boundary_ladder(4, 8, rho0=0.5)
        assert lad.radii == (0.5, 0.75, 0.875, 0.9375)

    def test_ring_points_on_ring(self):
        lad = boundary_ladder(3, 16)
        pts = lad.ring_points(1)
        assert np.allclose(np.abs(pts), lad.radii[1])
        assert len(lad.points()) == 3 * 16

    @given(n_rings=st.integers(2, 8), samples=st.integers(1, 12), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_ring_max_matches_per_ring_loop(self, n_rings, samples, data):
        lad = boundary_ladder(n_rings, samples)
        n = n_rings * samples
        values = data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
        want, offset = [], 0
        for j in range(len(lad.radii)):
            size = lad.ring_points(j).size
            want.append(float(np.max(values[offset : offset + size])))
            offset += size
        assert lad.ring_max(values) == want

    def test_monotone_radii_required(self):
        with pytest.raises(DomainError):
            BoundaryLadder(radii=(0.5, 0.4), samples_per_ring=4)
