"""Berezin / t-Berezin / averaging transforms and comparability."""

import numpy as np
import pytest

from bergman_lab import (
    DomainError,
    Weight,
    atomic,
    average_function,
    average_profile,
    berezin,
    berezin_profile,
    boundary_ladder,
    comparability_report,
    build_kernel_model,
    constant,
    density,
    disc_rule,
    kernel_diag,
    power_density,
    power_one_minus_z,
    profile_lp_norm,
    pseudo_disk,
    standard,
    t_berezin,
    t_berezin_profile,
    weighted_area,
)
from bergman_lab import measures, transforms
from bergman_lab.errors import EvaluationError
from bergman_lab.geometry import build_lattice
from bergman_lab.kernels import KernelModel, _kernel_powers


class TestBerezin:
    def test_normalization_u_dA(self, model_u1, lattice_small):
        # mu = u dA reproduces: Berezin transform is identically 1
        mu = weighted_area(model_u1.weight)
        vals = berezin_profile(mu, model_u1, lattice_small.points)
        assert np.max(np.abs(vals - 1.0)) < 1e-8

    def test_normalization_standard(self, model_std, lattice_small):
        mu = weighted_area(model_std.weight)
        vals = berezin_profile(mu, model_std, lattice_small.points)
        assert np.max(np.abs(vals - 1.0)) < 1e-6

    def test_point_mass_closed_form(self, model_u1):
        # mu = c delta_w: mu~(z) = c |K(z,w)|^2 / K(z,z)
        w, c, z = 0.4, 2.0, 0.2 + 0.1j
        mu = atomic([(w, c)])
        exact = c * abs(1.0 / (np.pi * (1.0 - w * z) ** 2)) ** 2 / kernel_diag(model_u1, z)
        assert berezin(mu, model_u1, z) == pytest.approx(exact, rel=1e-8)

    def test_non_radial_measure_on_radial_model(self):
        # a radial model with a non-radial u dA keeps the off-diagonal Gram
        # terms: the profile equals int |K(., z)|^2 dmu / K(z, z) pointwise
        m = build_kernel_model(constant(), 40)
        mu = weighted_area(power_one_minus_z(1.0))
        pts = np.array([0.5, 0.5j, -0.5])
        direct = [
            mu.integrate(lambda w, z=z: np.abs(m.kernel(w, z)) ** 2) / kernel_diag(m, z)
            for z in pts
        ]
        assert berezin_profile(mu, m, pts) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize(
        "u, degree, mu",
        [
            (constant(), 60, weighted_area(power_one_minus_z(1.0))),
            (standard(1.0), 40, power_density(0.5)),
            (power_one_minus_z(0.5), 30, power_density(1.5)),
            # off the real axis the coefficients and the Gram are complex
            (Weight("turned", {}, lambda z: np.abs(1.0 - 1j * z) ** 0.5, None), 20,
             density(lambda z: np.abs(1.0 + 0.5 * z) ** 2)),
        ],
        ids=["radial-model", "radial-pair", "general-model", "complex-coefficients"],
    )
    def test_profile_on_polar_rule_matches_nodes(self, u, degree, mu):
        # one FFT per ring at the nodes against the basis (or Horner) at the same nodes
        m = build_kernel_model(u, degree)
        # the second rule has fewer angles than the degree: its ring sums alias
        for rule in (disc_rule(24, 64, 0.9), disc_rule(12, 7, 0.99)):
            got = berezin_profile(mu, m, rule)
            want = berezin_profile(mu, m, rule.nodes)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_positive_and_linear(self, model_u1_small):
        mu = atomic([(0.3, 1.0)])
        v1 = berezin(mu, model_u1_small, 0.1)
        v2 = berezin(atomic([(0.3, 3.0)]), model_u1_small, 0.1)
        assert v1 > 0
        assert v2 == pytest.approx(3.0 * v1, rel=1e-12)


def _atoms(count, seed):
    rng = np.random.default_rng(seed)
    rho = 0.8 * np.sqrt(rng.random(count))
    return atomic(zip(rho * np.exp(2j * np.pi * rng.random(count)), rng.uniform(0.2, 2.0, count)))


class TestAtomicBerezin:
    @pytest.mark.parametrize(
        "u, degree", [(constant(), 200), (standard(0.5), 60), (power_one_minus_z(0.5), 30)],
        ids=["constant", "standard", "general"],
    )
    @pytest.mark.parametrize("count", [1, 3, 64])
    def test_matches_the_dense_gram(self, u, degree, count, monkeypatch):
        # sum_a m_a |K_N(z, a)|^2 / K(z, z) against e(z)^T M conj(e(z)) / K(z, z)
        # on M = basis_gram(m, mu), at ladder and lattice points
        m = build_kernel_model(u, degree)
        mu = _atoms(count, count)
        grids = [boundary_ladder(12, 16).points(), build_lattice(0.4, 0.95).points]
        M = measures.basis_gram(m, mu)
        wants = [m.quadratic_form(M, pts) / m.kernel_diag(pts) for pts in grids]

        def refuse(*args):
            raise AssertionError("an atomic profile builds no Gram matrix")

        monkeypatch.setattr(transforms, "basis_gram", refuse)
        monkeypatch.setattr(measures, "basis_gram", refuse)
        for pts, want in zip(grids, wants):
            got = berezin_profile(mu, m, pts)
            assert np.max(np.abs(got - want) / want) <= 1e-13
        assert berezin(mu, m, grids[0][5]) == berezin_profile(mu, m, grids[0][5:6])[0]

    def test_sums_the_atoms_in_order(self, model_u1_small):
        # the profile is linear in mu, atom by atom
        pts = np.array([0.0, 0.5j, -0.3 + 0.2j])
        a, b = (0.4, 2.0), (-0.2 + 0.6j, 0.5)
        m = model_u1_small
        total = berezin_profile(atomic([a, b]), m, pts)
        parts = berezin_profile(atomic([a]), m, pts) + berezin_profile(atomic([b]), m, pts)
        assert np.allclose(total, parts, rtol=1e-14, atol=0.0)

    def test_a_value_that_is_not_finite_names_its_atom(self, model_u1_small, monkeypatch):
        basis_matrix = KernelModel.basis_matrix
        atoms = np.array([0.1, 0.2j, -0.3])

        def broken(self, z):
            e = basis_matrix(self, z)
            if np.array_equal(z, atoms):
                e[:, 1] = np.nan
            return e

        monkeypatch.setattr(KernelModel, "basis_matrix", broken)
        with pytest.raises(EvaluationError, match=r"atom 0.2j"):
            berezin_profile(atomic([(z, 1.0) for z in atoms]), model_u1_small, [0.5, 0.1j])


class TestTBerezin:
    def test_t2_matches_berezin(self, model_u1_small, disc_points):
        mu = power_density(1.0)
        a = t_berezin_profile(mu, model_u1_small, 2.0, disc_points)
        b = berezin_profile(mu, model_u1_small, disc_points)
        assert np.allclose(a, b, rtol=1e-8)

    def test_identity_measure_t4(self, model_u1):
        # mu = u dA: int |K_z|^t u dA = ||K_z||_t^t, so mu~_t = 1 for every t
        mu = weighted_area(model_u1.weight)
        for z in (0.0, 0.3, 0.5j):
            assert t_berezin(mu, model_u1, 4.0, z) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("t", [1.3, 3.1])
    @pytest.mark.parametrize(
        "u, degree", [(constant(), 60), (standard(0.5), 60), (power_one_minus_z(1.0), 30)]
    )
    def test_matches_per_node_path(self, u, degree, t):
        # the old path: K_N(w, z) from the basis at every node of both rules
        m = build_kernel_model(u, degree)
        pts = np.array([0.0, 0.35 - 0.2j, -0.7j, 0.85])
        # the norm rule's weights are against u dA
        rule = m.norm_rule()

        def kernel_at(w, z):
            ez = np.conj(m.basis_matrix(np.array([z]))[:, 0])
            return (ez[:, None] * m.basis_matrix(w)).sum(axis=0)

        for mu in (power_density(1.3), weighted_area(power_one_minus_z(0.5))):
            want = [
                mu.integrate(lambda w, z=z: np.abs(kernel_at(w, z)) ** t)
                / np.sum(rule.weights * np.abs(kernel_at(rule.nodes, z)) ** t)
                for z in pts
            ]
            got = t_berezin_profile(mu, m, t, pts)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("t", [0.6, 3.3])
    def test_radial_pair_reads_the_modulus(self, t):
        # the numerator and the norm are taken once per |z|, at the real point |z|
        m = build_kernel_model(standard(1.0), 60)
        zs = np.array([0.73, 0.73j, -0.73, 0.3 + 0.4j, 0.5, 0.61 * np.exp(2.1j), 0.61, -0.9 + 0.1j])
        for mu in (power_density(0.7), weighted_area(standard(1.0))):
            got = t_berezin_profile(mu, m, t, zs)
            assert got[0] == got[1] == got[2]
            # abs is the modulus on_moduli takes (np.abs can differ in the last bit)
            assert np.array_equal(got, t_berezin_profile(mu, m, t, [abs(z) for z in zs]))

    @pytest.mark.parametrize("t", [0.7, 3.1])
    def test_unstructured_pairs_take_every_node(self, t):
        # a general model, or a non-radial density, sums every node of the rule
        # at every point, bit for bit the per-point node sums
        pts = np.array([0.0, 0.35 - 0.2j, -0.7j, 0.85])

        def node_sums(m, rule):
            return np.array([rule.weighted_sum(np.abs(m.kernel(rule, z)) ** t) for z in pts])

        general = build_kernel_model(power_one_minus_z(1.0), 30)
        for mu in (power_density(1.3), weighted_area(power_one_minus_z(0.5))):
            want = node_sums(general, mu._density_rule()) / node_sums(general, general.norm_rule())
            assert np.array_equal(t_berezin_profile(mu, general, t, pts), want)
        radial = build_kernel_model(standard(0.5), 30)
        rule = weighted_area(power_one_minus_z(0.5))._density_rule()
        assert np.array_equal(_kernel_powers(radial, rule, pts, t), node_sums(radial, rule))

    def test_one_density_rule_per_profile(self, monkeypatch):
        # the numerator's rule is built once for every point of a profile
        built = []
        density_rule = measures.density_rule
        monkeypatch.setattr(measures, "density_rule", lambda *a: built.append(a) or density_rule(*a))
        pts = np.linspace(0.0, 0.9, 7) * np.exp(1j * np.arange(7))
        for m in (build_kernel_model(standard(0.5), 30), build_kernel_model(power_one_minus_z(0.5), 20)):
            for mu in (power_density(1.3), weighted_area(power_one_minus_z(0.5))):
                built.clear()
                t_berezin_profile(mu, m, 1.5, pts)
                assert len(built) == 1

    def test_requires_positive_t(self, model_u1_small):
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="exponent"):
                t_berezin(power_density(1.0), model_u1_small, t, 0.1)


class TestAverageFunction:
    def test_identity_measure_is_one(self, u1):
        # mu = u dA gives mu^_r = 1 exactly
        mu = weighted_area(u1)
        for z in (0.0, 0.4, 0.3 - 0.5j):
            assert average_function(mu, u1, 0.3, z) == pytest.approx(1.0, rel=1e-9)

    def test_point_mass(self, u1):
        # atom inside Delta(z, r): average = c / (u-mass of the disk)
        from bergman_lab import mass

        mu = atomic([(0.2, 1.5)])
        d = pseudo_disk(0.2, 0.3)
        assert average_function(mu, u1, 0.3, 0.2) == pytest.approx(1.5 / mass(u1, d), rel=1e-9)
        assert average_function(mu, u1, 0.3, -0.6) == 0.0

    def test_invalid_radius(self, u1):
        with pytest.raises(DomainError):
            average_function(weighted_area(u1), u1, 1.0, 0.0)

    def test_profile_shape(self, u1, disc_points):
        vals = average_profile(weighted_area(u1), u1, 0.3, disc_points)
        assert vals.shape == (len(disc_points),)
        assert np.all(vals > 0)


class TestProfileLpNorm:
    def test_identity_measure_norm(self, u1):
        # mu^_r = 1 so the L^p(u dA) norm is pi^(1/p)
        norm, radii, partials = profile_lp_norm(weighted_area(u1), u1, 0.3, 2.0, r_max=0.9)
        assert norm == pytest.approx((np.pi * 0.81) ** 0.5, rel=1e-6)
        assert len(radii) == len(partials)
        assert np.all(np.diff(partials) >= -1e-14)

    def test_reference_dA(self, u1):
        ustd = standard(1.0)
        n_u, _, _ = profile_lp_norm(weighted_area(ustd), ustd, 0.3, 2.0, reference="u_dA", r_max=0.9)
        n_a, _, _ = profile_lp_norm(weighted_area(ustd), ustd, 0.3, 2.0, reference="dA", r_max=0.9)
        assert n_u != pytest.approx(n_a, rel=1e-3)


    @pytest.mark.parametrize(
        "mu, u",
        [(power_density(0.6), standard(1.0)), (weighted_area(constant(2.0)), constant(2.0)),
         (power_density(-0.5), standard(0.5))],
    )
    @pytest.mark.parametrize("exponent, reference", [(2.0, "u_dA"), (0.5, "dA")])
    def test_radial_pair_takes_one_value_per_shell(self, mu, u, exponent, reference):
        # the per-shell values at the real point rho against the per-node ones
        rule = disc_rule(48, 96, 0.995)
        vals = average_profile(mu, u, 0.3, rule.nodes) ** exponent
        ref = u(rule.nodes) if reference == "u_dA" else 1.0
        partials = np.cumsum((rule.weights * ref * vals).reshape(48, 96).sum(axis=1)) ** (1 / exponent)
        norm, radii, got = profile_lp_norm(mu, u, 0.3, exponent, reference)
        assert np.array_equal(radii, rule.rings[0])
        assert np.max(np.abs(got - partials) / partials) <= 1e-13
        assert norm == got[-1]


class TestComparability:
    def test_identity_measure_bands(self, model_u1_small, lattice_small):
        mu = weighted_area(model_u1_small.weight)
        rep = comparability_report(mu, model_u1_small, 2.0, 0.3, lattice_small)
        assert rep.verdict == "finite"
        # both transforms are exactly 1 for mu = u dA
        assert rep.extras["lp_ratio"] == pytest.approx(1.0, rel=1e-6)
        lo, hi = rep.extras["berezin_band"]
        assert lo == pytest.approx(1.0, rel=1e-6) and hi == pytest.approx(1.0, rel=1e-6)

    def test_ladder_grid_is_its_points(self, model_u1_small):
        # BoundaryLadder.points is a method, Lattice.points an attribute
        ladder = boundary_ladder(4, 8)
        mu = power_density(1.0)
        rep = comparability_report(mu, model_u1_small, 2.0, 0.3, ladder)
        want = comparability_report(mu, model_u1_small, 2.0, 0.3, ladder.points())
        assert len(rep.per_point) == 32
        assert rep.to_json() == want.to_json()

    def test_power_density_comparable(self, model_u1_small, lattice_small):
        rep = comparability_report(power_density(1.0), model_u1_small, 2.0, 0.3, lattice_small)
        assert rep.verdict == "finite"
        assert 0 < rep.extras["lower_band"]
        assert rep.extras["lp_ratio"] < 10.0
