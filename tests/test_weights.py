"""Weights: evaluation, masses, and joint-average constants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_lab import (
    CarlesonSet,
    DomainError,
    bekolle_constant,
    boundary_ladder,
    constant,
    cp_constant,
    disk_masses,
    grid_weight,
    mass,
    power_one_minus_z,
    pseudo_disk,
    standard,
    weight_from_config,
)
from bergman_lab.quadrature import _polar_rule

_XS = np.linspace(-1, 1, 8)
_WEIGHTS = [
    constant(),
    constant(2.5),
    standard(-0.5),
    standard(0.5),
    standard(1.0),
    power_one_minus_z(-0.5),
    power_one_minus_z(1.0),
    grid_weight(1.0 + 0.5 * np.add.outer(_XS, _XS) ** 2, 8),
]
# points of the disc up to |z| = 0.99
_POINT = st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2 * np.pi)).map(
    lambda p: complex(p[0] * np.exp(1j * p[1]))
)


def _reference_mass(u, z, r, resolution):
    """mass(u, pseudo_disk(z, r), resolution) as a per-disk rule computes it."""
    d = pseudo_disk(z, r)
    if u.kind == "constant":
        return float(u.params["value"]) * np.pi * float(d.euclid_radius) ** 2
    x, w = _polar_rule(resolution, 4 * resolution, 1.0)
    rho = d.euclid_radius
    return float(np.sum(rho**2 * w * u(d.euclid_center + rho * x)))


class TestWeightEvaluation:
    def test_constant(self):
        u = constant(2.0)
        assert np.allclose(u(np.array([0.1, 0.5j])), 2.0)

    def test_standard(self):
        u = standard(1.0)
        assert u(np.array([0.6 + 0.0j]))[0] == pytest.approx(1.0 - 0.36)

    def test_power_one_minus_z(self):
        u = power_one_minus_z(2.0)
        assert u(np.array([0.5j]))[0] == pytest.approx(abs(1.0 - 0.5j) ** 2)

    def test_config_round_trip(self):
        for u in (constant(3.0), standard(0.5), power_one_minus_z(1.5)):
            v = weight_from_config(u.config())
            z = np.array([0.3 + 0.2j, -0.6j])
            assert np.allclose(u(z), v(z))

    def test_grid_weight_positive(self):
        n = 32
        xs = np.linspace(-1, 1, n)
        samples = 1.0 + 0.5 * np.add.outer(xs, xs) ** 2
        u = grid_weight(samples, n)
        vals = u(np.array([0.0 + 0.0j, 0.5 + 0.1j]))
        assert np.all(vals > 0)


class TestMass:
    def test_constant_disk_exact(self):
        d = pseudo_disk(0.5, 0.4)
        assert mass(constant(), d) == pytest.approx(np.pi * d.euclid_radius**2)

    def test_scaling(self):
        d = pseudo_disk(0.2, 0.3)
        assert mass(constant(5.0), d) == pytest.approx(5.0 * mass(constant(), d))

    def test_standard_whole_disc(self):
        # int (1 - |z|^2) dA = pi/2
        from bergman_lab.quadrature import FullDisc

        assert mass(standard(1.0), FullDisc(), resolution=64) == pytest.approx(np.pi / 2, rel=1e-8)

    def test_carleson_set_mass_positive(self):
        v = mass(standard(1.0), CarlesonSet(0.5 + 0.2j))
        assert 0 < v < np.pi


class TestDiskMasses:
    @given(
        u=st.sampled_from(_WEIGHTS),
        r=st.floats(0.05, 0.9),
        points=st.lists(_POINT, min_size=1, max_size=40),
        resolution=st.sampled_from([8, 24, 32, 64]),
    )
    @settings(max_examples=40, deadline=None)
    # a radius whose float ** 2 and numpy square differ in the last bit
    @example(u=standard(1.0), r=0.2847746825383361,
             points=[-0.1240977221040393 - 0.2548723229595808j], resolution=32)
    def test_matches_per_point_loop(self, u, r, points, resolution):
        # at resolution 64 a block holds 4 disks, so 40 points span ten blocks
        want = np.array([_reference_mass(u, z, r, resolution) for z in points])
        assert np.array_equal(disk_masses(u, r, points, resolution), want)
        assert mass(u, pseudo_disk(points[-1], r), resolution) == want[-1]

    def test_pseudo_disk_validation(self):
        with pytest.raises(DomainError):
            disk_masses(standard(1.0), 1.2, [0.1], 32)
        with pytest.raises(DomainError):
            disk_masses(standard(1.0), 0.3, [0.1, 1.0], 32)
        with pytest.raises(DomainError):
            disk_masses(standard(1.0), 0.3, [0.1], 2)


class TestJointAverages:
    def test_constant_weight_is_one(self):
        # both averages of a constant weight are exactly 1 at every anchor
        rep = bekolle_constant(constant(), 2.0, anchors=[0.3, 0.5j, -0.7])
        assert rep.value == pytest.approx(1.0, rel=1e-9)
        rep = cp_constant(constant(), 2.0, 0.4, centers=[0.0, 0.5, 0.6j])
        assert rep.value == pytest.approx(1.0, rel=1e-9)

    def test_scale_invariance(self):
        # joint average is invariant under u -> c u
        anchors = [0.2, 0.5, 0.7j]
        a = bekolle_constant(standard(1.0), 2.0, anchors=anchors).value
        # no direct scaling constructor: constant multiple via config of standard
        # weights is not expressible, so compare cp constants instead
        b = cp_constant(standard(1.0), 2.0, 0.3, centers=anchors).value
        assert a > 0 and b > 0

    def test_standard_bp_finite_and_bounded_trend(self):
        lad = boundary_ladder(6, 8)
        rep = bekolle_constant(standard(1.0), 2.0, ladder=lad)
        assert np.isfinite(rep.value)
        assert rep.verdict == "finite"

    def test_cp_at_most_bp_scale(self):
        # C_p constants over small disks are mild compared to the global B_p
        bp = bekolle_constant(standard(1.0), 2.0, anchors=[0.5, 0.8]).value
        cp = cp_constant(standard(1.0), 2.0, 0.3, centers=[0.5, 0.8]).value
        assert cp < bp * 10

    def test_requires_p_above_one(self):
        with pytest.raises(DomainError):
            bekolle_constant(constant(), 1.0, anchors=[0.1])

    @given(st.floats(min_value=0.2, max_value=0.8))
    @settings(max_examples=10, deadline=None)
    def test_cp_positive(self, rho):
        rep = cp_constant(standard(1.0), 2.0, 0.3, centers=[rho])
        assert rep.value >= 1.0 - 1e-6  # Jensen: joint average >= 1
