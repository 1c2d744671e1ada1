"""Theorem checkers: boundedness/compactness/qlp indices and Carleson tests."""

import itertools

import numpy as np
import pytest

from bergman_lab import (
    CarlesonSet,
    DomainError,
    boundary_ladder,
    boundedness_index,
    carleson_test,
    compactness_index,
    atomic,
    constant,
    density,
    mass,
    power_density,
    power_one_minus_z,
    qlp_index,
    standard,
    theorem_consistency_report,
    vanishing_carleson_test,
    weighted_area,
)
from bergman_lab.criteria import _overall


class TestBoundedness:
    def test_identity_measure(self, model_u1, u1):
        mu = weighted_area(u1)
        rep = boundedness_index(mu, u1, model_u1, 2.0, 2.0, 2.0, 0.3, boundary_ladder(4, 8))
        assert rep.verdict == "finite"
        # p = q: the exponent vanishes and the quantity is the average = 1
        assert rep.index_value == pytest.approx(1.0, rel=1e-6)
        assert rep.extras["berezin_index"] == pytest.approx(1.0, rel=1e-6)

    def test_homogeneity(self, model_u1, u1):
        # scaling mu by c scales the index by c
        mu, lad = power_density(1.0), boundary_ladder(4, 8)
        a = boundedness_index(mu, u1, model_u1, 2.0, 2.0, 2.0, 0.3, lad)
        scaled = density(lambda z: 2.5 * mu.density_at(z))
        b = boundedness_index(scaled, u1, model_u1, 2.0, 2.0, 2.0, 0.3, lad)
        assert b.index_value == pytest.approx(2.5 * a.index_value, rel=1e-9)

    def test_ladder_trend(self, model_u1, u1):
        lad = boundary_ladder(6, 8)
        rep = boundedness_index(weighted_area(u1), u1, model_u1, 2.0, 2.0, 2.0, 0.3, lad)
        assert rep.verdict == "finite"
        assert len(rep.ring_trend) == 6

    def test_requires_p_le_q(self, model_u1, u1):
        with pytest.raises(DomainError):
            boundedness_index(power_density(1.0), u1, model_u1, 4.0, 2.0, 2.0, 0.3, boundary_ladder(4, 8))

    def test_requires_a_ladder(self, model_u1, u1, lattice_small):
        # a point set has no ring trend: its verdict read finite whenever the numbers were finite
        for grid in (lattice_small, lattice_small.points[:12]):
            with pytest.raises(DomainError, match="BoundaryLadder"):
                boundedness_index(power_density(1.0), u1, model_u1, 2.0, 2.0, 2.0, 0.3, grid)


class TestCompactness:
    def test_identity_measure_flat(self, model_u1, u1):
        lad = boundary_ladder(6, 8)
        rep = compactness_index(weighted_area(u1), u1, model_u1, 2.0, 2.0, 2.0, 0.3, lad)
        assert rep.verdict == "finite"
        vals = [v for _, v in rep.ring_trend]
        assert max(vals) == pytest.approx(1.0, rel=1e-5)

    def test_vanishing_density(self, model_u1, u1):
        # mu = (1-|z|^2) dA decays like (1-rho) per ring: compact
        lad = boundary_ladder(6, 8)
        rep = compactness_index(power_density(1.0), u1, model_u1, 2.0, 2.0, 2.0, 0.3, lad)
        assert rep.verdict == "vanishing"
        assert rep.extras["berezin_trend_verdict"] == "vanishing"


class TestQlp:
    def test_identity_measure_norm(self, u1):
        # mu^_r = 1: the L^4(dA) norm over |z| < r_max is (pi r_max^2)^(1/4)
        rep = qlp_index(weighted_area(u1), u1, None, 4.0, 2.0, 2.0, 0.3, reference="dA")
        from bergman_lab.config import DEFAULTS

        assert rep.verdict == "finite"
        assert rep.index_value == pytest.approx((np.pi * DEFAULTS.r_max**2) ** 0.25, rel=1e-6)

    def test_requires_q_below_p(self, u1):
        with pytest.raises(DomainError):
            qlp_index(power_density(1.0), u1, None, 2.0, 2.0, 2.0, 0.3)

    def test_unknown_reference(self, u1):
        with pytest.raises(DomainError):
            qlp_index(power_density(1.0), u1, None, 4.0, 2.0, 2.0, 0.3, reference="other")


class TestCarleson:
    def test_identity_measure_exact(self, u1, model_u1_small):
        # mu = u dA with p = q: (b) and (c) are both exactly 1 at every anchor
        rep = carleson_test(
            weighted_area(u1), u1, model_u1_small, 2.0, 2.0, 0.3, 2.0, 1.5, [0.3, 0.5, 0.6j]
        )
        assert rep.extras["index_b"] == pytest.approx(1.0, rel=1e-6)
        assert rep.extras["index_c"] == pytest.approx(1.0, rel=1e-6)
        assert rep.verdict == "finite"

    def test_s_floor(self, u1, model_u1_small):
        with pytest.raises(DomainError):
            carleson_test(
                power_density(1.0), u1, model_u1_small, 2.0, 2.0, 0.3, 1.0, 1.5, [0.3]
            )

    def test_matches_boundedness_index_p_eq_q(self, u1, model_u1):
        # with p = q the disk sub-index (c) is the boundedness quantity itself
        lad = boundary_ladder(3, 4)
        mu = power_density(1.0)
        rep_c = carleson_test(mu, u1, model_u1, 2.0, 2.0, 0.3, 2.0, 1.5, lad.points())
        rep_b = boundedness_index(mu, u1, model_u1, 2.0, 2.0, 2.0, 0.3, lad)
        assert rep_c.extras["index_c"] == pytest.approx(rep_b.index_value, rel=1e-9)

    def test_vanishing_trend(self, u1):
        lad = boundary_ladder(6, 8)
        rep = vanishing_carleson_test(power_density(0.5), u1, 2.0, 2.0, lad)
        assert rep.verdict == "vanishing"
        rep_id = vanishing_carleson_test(weighted_area(u1), u1, 2.0, 2.0, lad)
        assert rep_id.verdict == "finite"


class TestCarlesonRatiosPerModulus:
    @pytest.mark.parametrize(
        "mu, u",
        [
            (power_density(0.6), standard(1.0)),
            (weighted_area(standard(0.5)), constant(2.0)),
            (power_density(-0.5), power_one_minus_z(0.5)),
            (atomic([(0.5, 1.0), (-0.9j, 0.3)]), standard(-0.5)),
        ],
    )
    def test_matches_per_anchor_ratios(self, mu, u):
        # a radial mu or u takes S(|a|) once per modulus; the ratios agree
        # with one S(a) per anchor, and a pair with neither radial is unchanged
        lad = boundary_ladder(5, 6)
        rep = vanishing_carleson_test(mu, u, 2.0, 3.0, lad)
        got = np.array([v for _, v in rep.per_point])
        want = np.array([
            mu.region_masses(CarlesonSet, [a])[0] / mass(u, CarlesonSet(a)) ** 1.5 for a in lad.points()
        ])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [1.0, -1.2j, np.nan])
    def test_anchor_outside_the_disc_raises(self, model_u1, bad):
        with pytest.raises(DomainError):
            carleson_test(power_density(0.6), standard(1.0), model_u1, 2.0, 2.0, 0.3, 2.0, 1.0,
                          [0.2, bad])


class TestConsistency:
    def test_identity_p_le_q(self, model_u1, u1):
        rep = theorem_consistency_report(weighted_area(u1), u1, model_u1, 2.0, 2.0, 2.0, 0.3, 2.0)
        assert rep.extras["agreement"] is True
        assert rep.verdict == "finite"

    def test_vanishing_density_p_le_q(self, model_u1, u1):
        rep = theorem_consistency_report(power_density(1.0), u1, model_u1, 2.0, 2.0, 2.0, 0.3, 2.0)
        assert rep.extras["agreement"] is True
        assert rep.verdict == "vanishing"

    def test_q_below_p(self, model_u1, u1):
        rep = theorem_consistency_report(power_density(2.0), u1, model_u1, 4.0, 2.0, 2.0, 0.3, 2.0)
        assert rep.extras["agreement"] is True
        assert rep.verdict == "finite"
        assert "iv_average_lp_u_dA" in rep.extras["conditions"]
        assert "vi_vanishing_carleson" in rep.extras["conditions"]

    def test_carleson_not_applicable_small_q(self, model_u1, u1):
        rep = theorem_consistency_report(
            power_density(1.0), u1, model_u1, 0.8, 0.9, 2.0, 0.3, 4.0
        )
        assert rep.extras["conditions"]["iv_carleson_s"]["verdict"] == "not applicable"


def _table_oracle(verdicts, q_below_p):
    """The agreement rule as theorem_consistency_report wrote it with one branch per regime."""
    active = [v for v in verdicts if v != "not applicable"]
    bounded = [v in ("finite", "vanishing") for v in active]
    vanishing = [v == "vanishing" for v in active]
    if q_below_p:
        if all(bounded):
            return True, "finite"
        if not any(bounded):
            return True, "divergent"
        return False, "inconclusive"
    if all(bounded):
        if all(vanishing) or not any(vanishing):
            return True, "vanishing" if all(vanishing) else "finite"
        return False, "inconclusive"
    if not any(bounded):
        return True, "divergent"
    return False, "inconclusive"


@pytest.mark.parametrize("q_below_p", [False, True], ids=["p<=q", "q<p"])
def test_verdict_table_matches_the_rule_per_regime(q_below_p):
    # every combination of 2-4 condition verdicts, with and without a
    # "not applicable" entry among them
    combos = [
        list(c)
        for n in (2, 3, 4)
        for c in itertools.product(("finite", "vanishing", "divergent", "inconclusive"), repeat=n)
    ]
    assert len(combos) == 336
    for verdicts in combos:
        for table in (verdicts, verdicts[:1] + ["not applicable"] + verdicts[1:]):
            assert _overall(table, q_below_p) == _table_oracle(table, q_below_p), table
