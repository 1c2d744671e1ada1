"""Toeplitz matrices: spectra, trace identity, apply consistency, Schatten."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_lab import (
    DegeneracyError,
    DomainError,
    KernelModel,
    Spectrum,
    ToeplitzMatrix,
    apply_toeplitz,
    assemble,
    atomic,
    basis_gram,
    boundary_ladder,
    build_kernel_model,
    compactness_index,
    constant,
    disc_rule,
    essential_norm_estimate,
    h_function,
    kernel_diag,
    kernel_norm,
    matrix_apply,
    pairing_check,
    power_density,
    power_one_minus_z,
    reproducing_check,
    schatten_integral,
    schatten_membership_report,
    spectrum,
    standard,
    t_berezin_profile,
    trace_identity_check,
    weighted_area,
)
from bergman_lab.kernels import _norm_resolution
from bergman_lab.quadrature import gauss_rule


class TestMatrix:
    def test_identity_measure(self, model_u1_small, u1):
        T = assemble(weighted_area(u1), model_u1_small)
        assert np.max(np.abs(T.entries - np.eye(T.size))) < 1e-10
        assert T.operator_norm() == pytest.approx(1.0, rel=1e-10)

    def test_rank_one_point_mass(self, model_u1_small):
        # mu = 2 delta_0: single eigenvalue 2 K_N(0,0) = 2/pi
        T = assemble(atomic([(0.0, 2.0)]), model_u1_small)
        lam = T.eigenvalues()
        assert lam[0] == pytest.approx(2.0 / np.pi, rel=1e-12)
        assert np.max(lam[1:]) < 1e-14

    def test_rank_one_off_center(self, model_u1_small):
        z0, c = 0.4 + 0.2j, 1.5
        T = assemble(atomic([(z0, c)]), model_u1_small)
        exact = c * kernel_diag(model_u1_small, z0)
        assert T.eigenvalues()[0] == pytest.approx(exact, rel=1e-10)

    def test_spectrum_csv(self, model_u1_small):
        sp = spectrum(assemble(atomic([(0.0, 2.0)]), model_u1_small))
        lines = sp.to_csv().strip().splitlines()
        assert lines[0] == "k,lambda"
        assert float(lines[1].split(",")[1]) == pytest.approx(2.0 / np.pi)

    def test_spectrum_requires_descending(self):
        with pytest.raises(DomainError):
            Spectrum((1.0, 2.0))

    def test_monotone_in_measure(self, model_u1_small):
        T1 = assemble(atomic([(0.3, 1.0)]), model_u1_small)
        T2 = assemble(atomic([(0.3, 1.0), (0.1j, 0.5)]), model_u1_small)
        # mu1 <= mu2 implies lambda_k(T1) <= lambda_k(T2) (Weyl monotonicity)
        assert np.all(T1.eigenvalues() <= T2.eigenvalues() + 1e-12)


def _dense_block_eigenvalues(d, k):
    """Eigenvalues of the leading k x k block of diag(d), as the dense path takes them."""
    M = np.diag(d).astype(complex)
    M = 0.5 * (M + M.conj().T)
    return np.linalg.eigvalsh(M[:k, :k])


class TestDiagonalOperator:
    @given(
        alpha=st.one_of(st.none(), st.floats(-0.9, 3.0)),
        degree=st.integers(1, 300),
        t=st.floats(-0.9, 3.0),
        area=st.booleans(),
    )
    @example(alpha=None, degree=1, t=0.5, area=False)
    @example(alpha=1.0, degree=6, t=0.3, area=True)
    @example(alpha=None, degree=300, t=0.8, area=False)
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_eigvalsh(self, alpha, degree, t, area):
        # radial model (constant for alpha None, else standard(alpha)) and a
        # radial measure: the operator is its diagonal, and every spectrum
        # taken from it equals the dense eigen-solve bit for bit
        m = build_kernel_model(constant() if alpha is None else standard(alpha), degree)
        mu = weighted_area(standard(t)) if area else power_density(t)
        d = basis_gram(m, mu)
        T = assemble(mu, m)
        assert d.ndim == 1 and np.array_equal(T.gram, d)
        assert np.array_equal(T.entries, np.diag(d).astype(complex))
        want = np.maximum(np.real(_dense_block_eigenvalues(d, d.size)[::-1]), 0.0)
        assert np.array_equal(T.eigenvalues(), want)
        assert np.array_equal(spectrum(T).eigenvalues, tuple(float(v) for v in want))
        rep = schatten_membership_report(T, ("power", 2.0))
        for k, got in zip(rep.extras["block_sizes"], rep.extras["block_sums"]):
            lam = np.maximum(_dense_block_eigenvalues(d, k), 0.0)
            assert np.array_equal(got, float(np.sum(lam**2.0)))

    @given(
        alpha=st.one_of(st.none(), st.floats(-0.9, 3.0)),
        degree=st.integers(1, 300),
        t=st.floats(-0.9, 3.0),
        area=st.booleans(),
        coefs=st.lists(
            st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        z=st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False),
    )
    @example(alpha=None, degree=1, t=0.5, area=False, coefs=[1.0, 0.5j], z=0.3)
    @example(alpha=1.0, degree=300, t=0.3, area=True, coefs=[0.2, -1.0, 0.5j], z=-0.9j)
    @settings(max_examples=30, deadline=None)
    def test_matrix_apply_matches_dense(self, alpha, degree, t, area, coefs, z):
        # the diagonal acts elementwise; the dense matrix of the parent gives the same bits
        from bergman_lab.toeplitz import _basis_coordinates

        m = build_kernel_model(constant() if alpha is None else standard(alpha), degree)
        mu = weighted_area(standard(t)) if area else power_density(t)
        T = assemble(mu, m)
        coefs = coefs[: degree + 1]
        e = m.basis_matrix(np.array([complex(z)]))[:, 0]
        want = complex(np.sum((T.entries @ _basis_coordinates(m, coefs)) * e))
        assert T.gram.ndim == 1 and matrix_apply(T, coefs, z) == want

    def test_complex_diagonal_raises(self, model_u1_small):
        d = basis_gram(model_u1_small, power_density(1.0))
        with pytest.raises(DegeneracyError):
            ToeplitzMatrix(model_u1_small, power_density(1.0), d.astype(complex))


def _atoms(count, seed):
    rng = np.random.default_rng(seed)
    z = 0.9 * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
    return list(zip(z, rng.uniform(0.2, 2.0, count)))


def _dense_atomic(m, atoms):
    """The sum of mass * conj(e) e^T over the atoms, in atom order."""
    M = np.zeros((m.degree + 1, m.degree + 1), dtype=complex)
    for z, mass in atoms:
        e = m.basis_matrix(np.array([z]))[:, 0]
        M += mass * np.outer(np.conj(e), e)
    return M


class TestAtomicOperator:
    @pytest.mark.parametrize(
        "u, degree, count",
        [
            (constant(), 30, 1),
            (constant(), 30, 7),
            (standard(1.0), 24, 25),
            (standard(0.5), 12, 40),
            (power_one_minus_z(0.5), 20, 6),
            (power_one_minus_z(0.5), 16, 17),
        ],
    )
    def test_matches_the_dense_sum(self, u, degree, count):
        # eigenvalues from the A x A kernel matrix (or the k x k block where
        # k <= A) agree with the dense matrix's; the rest are exact zeros
        atoms = _atoms(count, degree + count)
        m = build_kernel_model(u, degree)
        T = assemble(atomic(atoms), m)
        dense = _dense_atomic(m, atoms)
        lam = T.eigenvalues()
        tol = 1e-13 * lam[0]
        assert np.max(np.abs(lam - np.linalg.eigvalsh(dense)[::-1])) <= tol
        assert np.all(lam[count:] == 0.0)
        n = T.size
        for k in sorted({2, n // 4, n // 2, n}):
            got = T._block_eigenvalues(k)
            assert np.max(np.abs(got - np.linalg.eigvalsh(dense[:k, :k]))) <= tol
            assert np.count_nonzero(got == 0.0) >= k - count
        assert np.array_equal(T.entries, T.entries.conj().T)
        assert np.max(np.abs(T.entries - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_spectra_solve_no_more_than_the_atoms(self, monkeypatch):
        # degree 200 and 64 atoms: the blocks of 201 and 100 solve 64 x 64
        # kernel matrices, the block of 50 its own 50 x 50 matrix, and the
        # dense matrix is never built (a dense operator solves 201, 100 and 50)
        T = assemble(atomic(_atoms(64, 3)), build_kernel_model(standard(1.0), 200))
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        spectrum(T)
        rep = schatten_membership_report(T, ("power", 2.0))
        assert sorted(sizes) == [(50, 50), (64, 64), (64, 64)]
        assert rep.index_value == float(np.sum(T.eigenvalues()[::-1] ** 2))
        assert T._gram is None


class TestTraceIdentity:
    def test_atomic(self, model_u1_small):
        mu = atomic([(0.2, 1.0), (0.5j, 0.7)])
        T = assemble(mu, model_u1_small)
        assert trace_identity_check(T, mu, model_u1_small) < 1e-10

    def test_density(self, model_u1_small):
        mu = power_density(1.0)
        T = assemble(mu, model_u1_small)
        assert trace_identity_check(T, mu, model_u1_small) < 1e-8

    def test_standard_weight(self, model_std):
        mu = weighted_area(standard(1.0))
        T = assemble(mu, model_std)
        assert trace_identity_check(T, mu, model_std) < 1e-6

    @pytest.mark.parametrize("degree", [40, 200])
    @pytest.mark.parametrize("tau", [-0.5, 0.5, 1.5])
    def test_radial_density_is_exact(self, tau, degree):
        # K_N(w, w) has t-degree N: the Gauss-Jacobi rule with the density's
        # exponent integrates it exactly; Gauss-Legendre in r times the density does not
        m = build_kernel_model(standard(0.5), degree)
        mu = power_density(tau)
        T = assemble(mu, m)
        total = float(np.sum(T.eigenvalues()))
        assert trace_identity_check(T, mu, m) <= 1e-12 * total
        legendre = disc_rule(*_norm_resolution(m.degree)[1:])
        on_legendre = np.sum(legendre.weights * mu.density_at(legendre.nodes) * m.kernel_diag(legendre))
        assert abs(total - on_legendre) > 1e-8 * total


class TestApply:
    @given(
        coefs=st.lists(
            st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        k=st.integers(min_value=0, max_value=23),
    )
    @settings(max_examples=15, deadline=None)
    def test_direct_matches_matrix(self, coefs, k, model_u1_small, disc_points):
        mu = atomic([(0.3, 1.0), (0.2j, 0.5)])
        T = assemble(mu, model_u1_small)
        z = disc_points[k]
        a = apply_toeplitz(mu, model_u1_small, coefs, z)
        b = matrix_apply(T, coefs, z)
        assert a == pytest.approx(b, abs=1e-9 * (1 + abs(a)))

    def test_pairing(self, model_u1_small):
        mu = power_density(1.0)
        assert pairing_check(mu, model_u1_small, [1.0, 0.5j], [0.0, 1.0, -0.25]) < 1e-9

    def test_degree_cap(self, model_u1_small):
        with pytest.raises(DomainError):
            apply_toeplitz(power_density(1.0), model_u1_small, np.zeros(100), 0.1)

    @pytest.mark.parametrize("weight", [constant(), power_one_minus_z(0.5)],
                             ids=["radial", "general"])
    def test_degree_cap_at_every_entry_point(self, weight):
        # a polynomial above the truncation degree is refused by every entry point
        m = build_kernel_model(weight, 5)
        mu = atomic([(0.3, 1.0)])
        T = assemble(mu, m)
        f, g = np.ones(9), [1.0]
        for call in (lambda: apply_toeplitz(mu, m, f, 0.1), lambda: reproducing_check(m, f, 0.1),
                     lambda: matrix_apply(T, f, 0.1), lambda: pairing_check(mu, m, f, g),
                     lambda: pairing_check(mu, m, g, f)):
            with pytest.raises(DomainError, match="exceeds the model truncation"):
                call()


class TestEssentialNorm:
    def test_identity_measure_bounded(self, model_u1, u1):
        lad = boundary_ladder(8, 8)
        rep = essential_norm_estimate(
            weighted_area(u1), u1, 2.0, 2.0, 2.0, 0.3, lad, m=model_u1
        )
        assert rep.verdict == "bounded"
        assert rep.index_value == pytest.approx(1.0, rel=1e-5)

    def test_vanishing_density(self, model_u1, u1):
        lad = boundary_ladder(6, 8)
        rep = essential_norm_estimate(power_density(1.0), u1, 2.0, 2.0, 2.0, 0.3, lad, m=model_u1)
        assert rep.verdict == "vanishing"

    @pytest.mark.parametrize("mu", [weighted_area(constant()), power_density(0.4)], ids=["u-dA", "t0.4"])
    def test_p_below_q_is_the_compactness_quantity(self, mu, model_u1, u1):
        # mu~_t / u(Delta)^(1/p - 1/q) grows along the ladder for these
        # measures, as compactness_index reads it; multiplying by the same
        # power instead read "vanishing"
        lad = boundary_ladder(8, 8)
        rep = essential_norm_estimate(mu, u1, 2.0, 4.0, 2.0, 0.3, lad, m=model_u1)
        ref = compactness_index(mu, u1, model_u1, 2.0, 4.0, 2.0, 0.3, lad)
        assert rep.verdict == "divergent"
        assert rep.extras["ring_max_berezin"] == ref.extras["ring_max_berezin"]

    def test_q_less_p_short_circuit(self, model_u1, u1):
        rep = essential_norm_estimate(power_density(2.0), u1, 4.0, 2.0, 2.0, 0.3, None, model_u1)
        assert rep.verdict == "vanishing"
        assert rep.index_value == 0.0

    def test_invalid_exponents(self, model_u1, u1):
        with pytest.raises(DomainError):
            essential_norm_estimate(power_density(1.0), u1, -1.0, 2.0, 2.0, 0.3, None, model_u1)


class TestSchatten:
    def test_h_function_specs(self):
        name, f = h_function(("power", 2.0))
        assert name == "power(2)"
        assert f(3.0) == pytest.approx(9.0)
        _, g = h_function({"kind": "table", "x": [0.0, 1.0], "y": [0.0, 2.0]})
        assert g(0.5) == pytest.approx(1.0)
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(DomainError):
                h_function(("power", bad))
        with pytest.raises(DomainError):
            h_function({"kind": "mystery"})

    def test_membership_rank_one(self, model_u1_small):
        # single eigenvalue lambda_1 = 2/pi, h = power(2): sum = (2/pi)^2
        T = assemble(atomic([(0.0, 2.0)]), model_u1_small)
        rep = schatten_membership_report(T, ("power", 2.0))
        assert rep.index_value == pytest.approx((2 / np.pi) ** 2, rel=1e-10)
        assert rep.verdict == "finite"

    def test_membership_constant_scaling(self, model_u1_small):
        T = assemble(atomic([(0.0, 2.0)]), model_u1_small)
        s1 = schatten_membership_report(T, ("power", 2.0), C=1.0).index_value
        s2 = schatten_membership_report(T, ("power", 2.0), C=3.0).index_value
        assert s2 == pytest.approx(9.0 * s1, rel=1e-12)

    def test_integral_trend_finite(self, model_u1):
        rep = schatten_integral(power_density(2.0), model_u1, ("power", 2.0))
        assert rep.verdict in ("finite", "inconclusive")
        assert all(v > 0 for v in rep.extras["sweep_values"])

    def test_integral_reports_degree_times_gap(self, u1):
        # the degree-1600 sweep of check 13: N (1 - R) = 1.6 at R = 0.999 is
        # where the truncated kernel stops resolving the rim
        rep = schatten_integral(power_density(0.8), build_kernel_model(u1, 1600), ("power", 2))
        assert rep.extras["degree_times_gap"] == pytest.approx([16.0, 8.0, 1.6], rel=1e-12)

    @pytest.mark.parametrize("u, t, h", [
        (constant(), 0.8, ("power", 2)), (standard(1.0), 0.3, ("power", 1.5)),
        (constant(2.0), 1.2, {"kind": "table", "x": [0.0, 0.5, 2.0], "y": [0.0, 0.2, 3.0]}),
    ])
    def test_one_pass_sweep_is_the_per_radius_integral(self, u, t, h):
        # every radius's 200 Gauss nodes go through one Horner pass; each value
        # is the integral at its own radius with a Horner sum per node
        m = build_kernel_model(u, 120)
        mu = power_density(t)
        sweep = (0.9, 0.99, 0.995, 0.999)
        values = schatten_integral(mu, m, h, C=1.5, sweep=sweep).extras["sweep_values"]
        _, hfun = h_function(h)
        M = basis_gram(m, mu)
        x, w = gauss_rule(200)
        for r_out, got in zip(sweep, values):
            rr = 0.5 * r_out * (x + 1.0)
            z = rr.astype(complex)
            # x on the array, as numpy's scalar abs and square can differ in the last bit
            x2 = np.abs(z) ** 2
            kd = np.array([np.polynomial.polynomial.polyval(v, 1.0 / m.diag_norms) for v in x2])
            num = np.array([np.polynomial.polynomial.polyval(v, M / m.diag_norms) for v in x2])
            wts = 0.5 * r_out * w * 2.0 * np.pi * rr
            want = float(np.sum(wts * hfun(1.5 * (num / kd)) * kd * np.asarray(u(z), dtype=float)))
            assert got == want
            assert schatten_integral(mu, m, h, C=1.5, sweep=(r_out,)).extras["sweep_values"] == [want]

    def test_membership_takes_the_cached_spectrum(self, monkeypatch):
        # the k = n block sum reads T.eigenvalues(), so a dense operator pays
        # one full eigen-solve for spectrum(T) and the report together
        T = assemble(power_density(0.5), build_kernel_model(power_one_minus_z(0.5), 60))
        full = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            full.append(np.shape(a) == (T.size, T.size))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        spectrum(T)
        rep = schatten_membership_report(T, ("power", 2.0))
        assert sum(full) == 1
        assert rep.index_value == float(np.sum(T.eigenvalues()[::-1] ** 2))

    def test_invalid_constant(self):
        # h(C lambda) with C <= 0, or not finite, tests nothing; both Schatten tests refuse it
        m = build_kernel_model(constant(), 40)
        T = assemble(power_density(1.0), m)
        for C in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="constant C"):
                schatten_membership_report(T, ("power", 2.0), C=C)
            with pytest.raises(DomainError, match="constant C"):
                schatten_integral(power_density(1.0), m, ("power", 2.0), C=C)


def test_polar_rule_callers_build_no_basis_on_nodes(monkeypatch):
    # on polar rules kernels, diagonals and Berezin values go one FFT per ring:
    # the basis (the power loop) is built at single points only
    m = build_kernel_model(power_one_minus_z(0.5), 20)
    mu = power_density(1.5)
    T = assemble(mu, m)
    sizes = []
    basis_matrix = KernelModel.basis_matrix

    def counted(self, z):
        sizes.append(np.size(z))
        return basis_matrix(self, z)

    monkeypatch.setattr(KernelModel, "basis_matrix", counted)
    coefs = [1.0, 0.5j, -0.25]
    reproducing_check(m, coefs, 0.3 + 0.2j)
    kernel_norm(m, 0.4j, 3.0)
    trace_identity_check(T, mu, m)
    t_berezin_profile(mu, m, 1.5, np.array([0.1, -0.5j]))
    apply_toeplitz(mu, m, coefs, 0.2)
    pairing_check(mu, m, coefs, coefs[::-1])
    schatten_integral(mu, m, ("power", 1.0), sweep=(0.9,))
    assert all(n <= 1 for n in sizes)
