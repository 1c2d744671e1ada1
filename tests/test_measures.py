"""Disc measures: atoms, densities, disk masses, Gram assembly."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergman_lab import (
    CarlesonSet,
    DiscQuadrature,
    DomainError,
    EvaluationError,
    Weight,
    assemble,
    atomic,
    basis_gram,
    build_kernel_model,
    constant,
    density,
    disc_rule,
    measure_from_config,
    power_density,
    power_one_minus_z,
    pseudo_disk,
    pseudo_distance,
    standard,
    weight_from_config,
    weighted_area,
)
from bergman_lab.kernels import _gram_resolution
from bergman_lab.quadrature import _BLOCK_NODES, _polar_rule, beta_moments, weighted_disc_rule

_POINT = st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2 * np.pi)).map(
    lambda p: complex(p[0] * np.exp(1j * p[1]))
)
_POINTS = st.lists(_POINT, min_size=1, max_size=30)


def _reference_basis_gram(m, mu):
    """M[j, k] = int e_k conj(e_j) dmu with the basis evaluated on every node."""
    rule = disc_rule(*_gram_resolution(m.degree))
    E = m.basis_matrix(rule.nodes)
    return (np.conj(E) * (rule.weights * mu.density_at(rule.nodes))) @ E.T


def _reference_disk_mass(mu, z, r, refine=1):
    """mu(Delta(z, r)) as the per-disk rules compute it, one disk at a time.

    refine multiplies the rule's resolution.
    """
    d = pseudo_disk(z, r)
    if mu.kind == "atomic":
        return float(sum(mz for a, mz in mu.atoms if d.contains(a)))
    if mu.kind == "weighted_area" and mu.density.kind == "constant":
        return float(mu.density.params["value"]) * np.pi * float(d.euclid_radius) ** 2
    resolution, f = (48, mu.density) if mu.kind == "weighted_area" else (32, mu.density_at)
    resolution *= refine
    x, w = _polar_rule(resolution, 4 * resolution, 1.0)
    rho = d.euclid_radius
    return float(np.sum(rho**2 * w * f(d.euclid_center + rho * x)))


class TestConstruction:
    def test_atoms_validated(self):
        with pytest.raises(DomainError):
            atomic([(1.5, 1.0)])
        with pytest.raises(DomainError):
            atomic([(0.3, -1.0)])

    def test_config_round_trip(self):
        mu = atomic([(0.3 + 0.1j, 2.0), (-0.5j, 0.5)])
        back = measure_from_config(mu.config())
        assert back.total_mass() == pytest.approx(mu.total_mass())
        mu = power_density(0.7)
        back = measure_from_config(mu.config())
        assert back.total_mass() == pytest.approx(mu.total_mass(), rel=1e-12)

    @pytest.mark.parametrize("t", [-1.0, -1.5, -2.0])
    def test_power_density_needs_finite_mass(self, t):
        # (1 - |z|^2)^t dA has infinite mass for t <= -1
        with pytest.raises(DomainError, match="t > -1"):
            power_density(t)
        with pytest.raises(DomainError, match="t > -1"):
            measure_from_config({"kind": "power_density", "t": t})


_GRID = "GRID_CSV"  # stands for the temporary sample file of a test


def _grid_csv(directory, n=4):
    """An n x n grid of positive samples as x, y, value rows, in the loader's [iy, ix] order."""
    axis = np.linspace(-1.0, 1.0, n)
    y, x = np.meshgrid(axis, axis, indexing="ij")
    path = directory / "samples.csv"
    np.savetxt(path, np.column_stack([x.ravel(), y.ravel(), 1.0 + x.ravel() ** 2 + 0.5 * y.ravel()]),
               delimiter=",")
    return str(path)


_WEIGHT_CONFIGS = [
    {"kind": "constant", "value": 2.5},
    {"kind": "standard", "alpha": -0.5},
    {"kind": "power_one_minus_z", "gamma": 1.5},
    {"kind": "grid", "file": _GRID, "n": 4},
]
_MEASURE_CONFIGS = [
    {"kind": "atomic", "atoms": [[0.3, 0.1, 2.0], [0.0, -0.5, 0.5]]},
    {"kind": "power_density", "t": 0.7},
    *({"kind": "weighted_area", "weight": w} for w in _WEIGHT_CONFIGS),
    {"kind": "density_grid", "file": _GRID, "n": 4},
]


def _with_file(cfg, path):
    """cfg with the _GRID placeholder, at any depth, replaced by path."""
    if isinstance(cfg, dict):
        return {k: _with_file(v, path) for k, v in cfg.items()}
    return path if cfg == _GRID else cfg


class TestConfigRoundTrip:
    """Every config the library writes for a kind built from a config loads back."""

    _Z = np.array([0.0, 0.3 + 0.4j, -0.7j, 0.9])

    @pytest.mark.parametrize("cfg", _WEIGHT_CONFIGS, ids=lambda c: c["kind"])
    def test_weights(self, cfg, tmp_path):
        cfg = _with_file(cfg, _grid_csv(tmp_path))
        u = weight_from_config(cfg)
        back = weight_from_config(u.config())
        assert u.config() == back.config() == cfg
        assert np.array_equal(back(self._Z), u(self._Z))
        assert back.power == u.power

    @pytest.mark.parametrize(
        "cfg", _MEASURE_CONFIGS, ids=lambda c: "-".join([c["kind"], *c.get("weight", {}).values()][:2])
    )
    def test_measures(self, cfg, tmp_path):
        cfg = _with_file(cfg, _grid_csv(tmp_path))
        mu = measure_from_config(cfg)
        back = measure_from_config(mu.config())
        assert mu.config() == back.config() == cfg
        assert (back.kind, back.is_radial) == (mu.kind, mu.is_radial)
        if mu.kind == "atomic":
            assert back.atoms == mu.atoms
        else:
            assert np.array_equal(back.density_at(self._Z), mu.density_at(self._Z))


class TestIntegration:
    def test_atomic_exact(self):
        mu = atomic([(0.5, 2.0), (0.25j, 1.0)])
        val = mu.integrate(lambda z: np.abs(z) ** 2)
        assert val == pytest.approx(2.0 * 0.25 + 1.0 * 0.0625)

    def test_power_density_total_mass(self):
        # int (1 - |z|^2)^t dA = pi / (t + 1)
        for t in (0.0, 1.0, 2.5):
            assert power_density(t).total_mass() == pytest.approx(np.pi / (t + 1), rel=1e-10)

    def test_integrate_at_gives_densities_the_rule(self):
        # atoms come in one array of every atom, in atom order; densities hand
        # over their polar rule
        seen = []

        def f(at):
            seen.append(at)
            return np.abs(getattr(at, "nodes", at)) ** 2

        mu = atomic([(0.5, 2.0), (0.25j, 1.0)])
        assert mu.integrate_at(f) == mu.integrate(lambda z: np.abs(z) ** 2)
        assert [a.tolist() for a in seen] == [[0.5, 0.25j]]
        mu = power_density(1.0)
        assert mu.integrate_at(f) == mu.integrate(lambda z: np.abs(z) ** 2)
        assert isinstance(seen[-1], DiscQuadrature)

    @pytest.mark.parametrize(
        "mu, c, a",
        [(power_density(-0.3), 1.0, -0.3), (power_density(0.6), 1.0, 0.6),
         (weighted_area(standard(-0.5)), 1.0, -0.5), (weighted_area(constant(2.5)), 2.5, 0.0)],
    )
    def test_radial_density_rides_in_a_gauss_jacobi_rule(self, mu, c, a):
        # the density is never evaluated: its exponent is the rule's own
        seen = []

        def ones(at):
            seen.append(at)
            return np.ones(at.nodes.shape)

        mu.integrate_at(ones)
        (rule,) = seen
        want = weighted_disc_rule(128, 256, c, a)
        assert np.array_equal(rule.nodes, want.nodes) and np.array_equal(rule.weights, want.weights)
        assert (rule.region, rule.resolution) == (want.region, want.resolution)
        assert mu.total_mass() == pytest.approx(c * beta_moments(a, 0)[0], rel=1e-14)
        # the t-Berezin numerator of a degree-200 kernel at t = 1.3 against an
        # (800, 2048) rule; Gauss-Legendre in r times the density was 4.6e-4 off
        # at a = -0.3, |z| = 0.3
        m = build_kernel_model(constant(), 200)
        fine = weighted_disc_rule(800, 2048, c, a)
        for z in (0.3, 0.9j):
            f = lambda w: np.abs(m.kernel(w, z)) ** 1.3  # noqa: E731
            assert mu.integrate_at(f) == pytest.approx(np.sum(fine.weights * f(fine)), rel=1e-12)

    def test_weighted_area_total_mass(self):
        assert weighted_area(standard(1.0)).total_mass() == pytest.approx(np.pi / 2, rel=1e-10)

    @given(st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_linearity_in_scaling(self, c):
        mu = power_density(1.0)
        scaled = density(lambda z: c * mu.density_at(z))
        assert scaled.total_mass() == pytest.approx(c * mu.total_mass(), rel=1e-9)


class TestDiskMass:
    def test_atom_membership(self):
        mu = atomic([(0.0, 1.0), (0.6, 2.0)])
        assert mu.disk_mass(0.0, 0.3) == 1.0
        assert mu.disk_mass(0.6, 0.1) == 2.0
        assert mu.disk_mass(0.0, 0.7) == 3.0

    def test_area_closed_form(self):
        # mu = dA: mass of Delta(z, r) is pi * euclid_radius^2
        mu = weighted_area(constant())
        d = pseudo_disk(0.4, 0.3)
        assert mu.disk_mass(0.4, 0.3) == pytest.approx(np.pi * d.euclid_radius**2, rel=1e-9)

    def test_monotone_in_radius(self):
        mu = power_density(1.0)
        assert mu.disk_mass(0.5, 0.2) < mu.disk_mass(0.5, 0.4)

    @given(
        points=_POINTS,
        atoms=st.lists(st.tuples(_POINT, st.floats(0.1, 3.0)), min_size=1, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_batched_atoms_match_loop(self, points, atoms):
        # r puts the first atom exactly on the boundary of Delta(points[0], r)
        r = pseudo_distance(points[0], atoms[0][0])
        assume(0.01 < r < 0.99)
        mu = atomic(atoms)
        want = np.array([_reference_disk_mass(mu, z, r) for z in points])
        assert np.array_equal(mu.disk_masses(points, r), want)
        assert mu.disk_mass(points[0], r) == want[0]
        assert not pseudo_disk(points[0], r).contains(atoms[0][0])

    @pytest.mark.parametrize(
        "points, r, message",
        [
            ([0.2, 1.0, 0.3], 0.3, "center = \\(1\\+0j\\) is not in the open unit disc"),
            ([0.2, complex(np.nan, 0.0)], 0.3, "not in the open unit disc"),
            ([0.2], 1.0, "pseudohyperbolic radius 1.0 outside"),
            ([0.2], 0.0, "pseudohyperbolic radius 0.0 outside"),
        ],
    )
    def test_atomic_masses_validate_points_and_radius(self, points, r, message):
        with pytest.raises(DomainError, match=message):
            atomic([(0.1, 1.0)]).disk_masses(points, r)

    @given(
        mu=st.sampled_from([
            power_density(-0.5),
            power_density(0.4),
            density(lambda z: 1.0 + np.real(z) ** 2),
            weighted_area(constant(2.0)),
            weighted_area(standard(1.0)),
            weighted_area(power_one_minus_z(1.0)),
        ]),
        r=st.floats(0.05, 0.9),
        points=_POINTS,
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_densities_match_loop(self, mu, r, points):
        rotated = np.array([_reference_disk_mass(mu, z, r) for z in points])
        got = mu.disk_masses(points, r)
        if mu.is_radial:
            # Delta(z, r) turns with z: one disk per modulus, centred at |z|
            want = np.array([_reference_disk_mass(mu, abs(z), r) for z in points])
            # the turned rule differs from the rotated one by less than the rule's
            # own discretization error, estimated by the doubled rule; 1e-10 where
            # the rule resolves the density (up to 2e-10 for t = -0.5 at r = 0.9)
            finer = np.array([_reference_disk_mass(mu, z, r, 2) for z in points])
            assert np.all(np.abs(got - rotated) <= 1e-10 * rotated + 2 * np.abs(rotated - finer))
            if r <= 0.6:
                assert np.allclose(got, rotated, rtol=1e-10, atol=0.0)
        else:
            want = rotated
        assert np.array_equal(got, want)
        if mu.kind == "weighted_area" and mu.density.kind == "constant":
            assert np.array_equal(got, rotated)
        assert mu.disk_mass(points[-1], r) == want[-1]

    def test_is_radial(self):
        assert power_density(0.4).is_radial and weighted_area(standard(1.0)).is_radial
        assert not weighted_area(power_one_minus_z(1.0)).is_radial
        assert not density(lambda z: np.ones(np.shape(z))).is_radial
        assert not atomic([(0.0, 1.0)]).is_radial

    def test_nonfinite_density_in_a_later_block_raises(self):
        mu = density(lambda z: np.where(np.real(z) > 0.9, np.nan, 1.0))
        # a density disk mass takes 32 x 128 nodes; the bad disk opens the second block
        points = [0.0] * (_BLOCK_NODES // (32 * 128)) + [0.95]
        assert np.all(np.isfinite(mu.disk_masses(points[:-1], 0.3)))
        with pytest.raises(EvaluationError, match="not finite at node"):
            mu.disk_masses(points, 0.3)

    def test_region_mass_carleson(self):
        # mu = u dA over S(a) agrees with the weight mass of S(a)
        from bergman_lab import mass

        u = standard(1.0)
        mu = weighted_area(u)
        anchors = [0.5 + 0.2j, -0.3j]
        want = [mass(u, CarlesonSet(a)) for a in anchors]
        assert mu.region_masses(CarlesonSet, anchors) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mu", [power_density(0.6), weighted_area(standard(1.0)),
                                    weighted_area(power_one_minus_z(1.0))])
    def test_region_mass_of_a_pseudo_disk_is_disk_mass(self, mu):
        points = [0.0, 0.7j, -0.5 + 0.6j, 0.999]
        got = mu.region_masses(lambda z: pseudo_disk(z, 0.3), points)
        assert np.array_equal(got, mu.disk_masses(points, 0.3))

    def test_region_mass_atomic(self):
        mu = atomic([(0.5, 2.0), (-0.5, 1.0)])
        assert mu.region_masses(CarlesonSet, [0.5, -0.5, 0.0]).tolist() == [2.0, 1.0, 3.0]


class TestBasisGram:
    def test_identity_for_weighted_area(self, model_u1_small, u1):
        # a radial pair returns the diagonal alone, here 1.0 exactly
        M = basis_gram(model_u1_small, weighted_area(u1))
        assert M.shape == (model_u1_small.degree + 1,) and M.dtype == np.float64
        assert np.array_equal(M, np.ones(model_u1_small.degree + 1))

    def test_radial_fast_path_matches_generic(self, model_u1_small):
        from bergman_lab.measures import DiscMeasure

        mu_fast = power_density(1.0)
        mu_slow = DiscMeasure(
            "density",
            density=Weight("density", {}, lambda z: (1.0 - np.abs(z) ** 2) ** 1.0, None),
            params={"t": 1.0},
        )
        Mf = basis_gram(model_u1_small, mu_fast)
        Ms = basis_gram(model_u1_small, mu_slow)
        assert Mf.ndim == 1 and Ms.ndim == 2
        assert np.max(np.abs(np.diag(Mf) - Ms)) < 1e-10

    def test_atomic_rank(self, model_u1_small):
        M = basis_gram(model_u1_small, atomic([(0.3, 1.0), (0.4j, 2.0)]))
        assert np.linalg.matrix_rank(M, tol=1e-10) == 2

    def test_hermitian(self, model_u1_small):
        mu = atomic([(0.3 + 0.2j, 1.0)])
        M = basis_gram(model_u1_small, mu)
        assert np.max(np.abs(M - M.conj().T)) < 1e-12

    def test_monotone_psd_order(self, model_u1_small):
        # mu1 <= mu2 atomwise => Gram difference is PSD
        m1 = basis_gram(model_u1_small, atomic([(0.3, 1.0)]))
        m2 = basis_gram(model_u1_small, atomic([(0.3, 1.0), (0.5j, 0.5)]))
        eig = np.linalg.eigvalsh(m2 - m1)
        assert eig[0] > -1e-12

    @pytest.mark.parametrize(
        "model, mu",
        [
            ((standard(1.0), 30), weighted_area(power_one_minus_z(1.0))),
            ((power_one_minus_z(0.5), 20), power_density(1.5)),
            # off the real axis the coefficients and the Gram are complex
            ((Weight("turned", {}, lambda z: np.abs(1.0 - 1j * z) ** 0.5, None), 20),
             density(lambda z: np.abs(1.0 + 0.5 * z) ** 2)),
        ],
        ids=["radial-model", "general-model", "complex-coefficients"],
    )
    def test_density_path_matches_basis_on_nodes(self, model, mu):
        m = build_kernel_model(*model)
        got = basis_gram(m, mu)
        want = _reference_basis_gram(m, mu)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nonfinite_density_raises(self, model_u1_small):
        mu = density(lambda z: np.where(np.real(z) > 0.5, np.inf, 1.0))
        with pytest.raises(EvaluationError, match="not finite at node"):
            basis_gram(model_u1_small, mu)


def _loop_integrate_at(mu, f):
    """The per-atom loop integrate_at replaced: f on one one-point array per atom."""
    total = 0.0
    for z, mz in mu.atoms:
        v = np.asarray(f(np.array([z])))[0]
        if not np.isfinite(v):
            raise EvaluationError(f"integrand not finite at atom {z}")
        total += mz * v
    return total


def _loop_basis_gram(m, mu):
    """The per-atom loop basis_gram replaced: one basis_matrix call per atom."""
    M = np.zeros((m.degree + 1, m.degree + 1), dtype=complex)
    for z, mz in mu.atoms:
        e = m.basis_matrix(np.array([z]))[:, 0]
        M += mz * np.outer(np.conj(e), e)
    return M


_RADIAL_MODELS = [build_kernel_model(constant(2.5), 60), build_kernel_model(standard(-0.5), 113)]


class TestAtomBatch:
    """Atoms go to the integrand and to basis_matrix in one array, bit for bit the old loops."""

    @given(
        model=st.sampled_from(_RADIAL_MODELS),
        atoms=st.lists(st.tuples(_POINT, st.floats(0.01, 5.0)), max_size=12),
        w=_POINT,
        coefs=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False), min_size=1,
                       max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_match_the_per_atom_loops(self, model, atoms, w, coefs):
        mu = atomic(atoms)
        integrands = [
            model.kernel_diag,
            lambda z: np.polynomial.polynomial.polyval(z, coefs) * np.conj(model.kernel(z, w)),
            lambda z: np.abs(model.kernel(z, w)) ** 1.3,
        ]
        for f in integrands:
            got, want = mu.integrate_at(f), _loop_integrate_at(mu, f)
            assert got == want and type(got) is type(want)
        assert np.array_equal(basis_gram(model, mu), _loop_basis_gram(model, mu))

    def test_one_call_for_every_atom(self):
        calls = []
        mu = atomic([(0.5, 2.0), (0.25j, 1.0), (-0.1 + 0.2j, 0.5)])
        mu.integrate_at(lambda z: calls.append(z) or np.ones(z.shape))
        assert [z.tolist() for z in calls] == [[0.5, 0.25j, -0.1 + 0.2j]]

    def test_no_atoms_integrate_to_zero(self):
        mu, m = atomic([]), _RADIAL_MODELS[0]
        assert mu.integrate_at(m.kernel_diag) == 0.0
        assert mu.integrate(lambda z: np.abs(z) ** 2) == 0.0
        assert mu.total_mass() == 0.0
        assert np.array_equal(basis_gram(m, mu), np.zeros((61, 61)))

    def test_non_finite_atom_is_named(self):
        # the second and third atoms are both bad; the first of them is named
        mu = atomic([(0.1, 1.0), (0.5, 1.0), (0.7j, 1.0)])

        def f(z):
            return np.where(np.abs(z) > 0.3, np.where(np.real(z) > 0, np.inf, np.nan), 1.0)

        with pytest.raises(EvaluationError, match=r"at atom \(0\.5\+0j\)"):
            mu.integrate_at(f)
        with pytest.raises(EvaluationError, match=r"at atom \(0\.5\+0j\)"):
            _loop_integrate_at(mu, f)


class TestClosedFormDiagonals:
    @pytest.mark.parametrize("t", [-0.1, 0.3, 0.8])
    def test_power_density_diagonal(self, t):
        # on A^2(dA), G_nn = pi / (n + 1), so M_nn = (n + 1) B(n + 1, t + 1)
        mpmath = pytest.importorskip("mpmath")
        degree = 200
        with mpmath.workdps(30):
            exact = np.array(
                [float((n + 1) * mpmath.beta(n + 1, mpmath.mpf(t) + 1)) for n in range(degree + 1)]
            )
        M = basis_gram(build_kernel_model(constant(), degree), power_density(t))
        assert M.shape == (degree + 1,) and M.dtype == np.float64
        assert np.max(np.abs(M / exact - 1.0)) < 1e-12

    @pytest.mark.parametrize("u", [constant(2.5), standard(-0.5), standard(0.5), standard(2.0)])
    def test_radial_weighted_area_is_identity(self, u):
        m = build_kernel_model(u, 120)
        assert np.array_equal(assemble(weighted_area(u), m).entries, np.eye(m.degree + 1))

    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_general_weighted_area_is_identity(self, gamma):
        # the model's Gram and the Toeplitz matrix share one polar rule
        u = power_one_minus_z(gamma)
        m = build_kernel_model(u, 80)
        T = assemble(weighted_area(u), m)
        assert np.max(np.abs(T.entries - np.eye(m.degree + 1))) < 1e-12
