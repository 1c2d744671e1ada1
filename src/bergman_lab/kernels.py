"""Truncated reproducing-kernel model of the weighted Bergman space A^2(u).

The model carries an orthonormal polynomial basis e_0..e_N for the inner
product  <f, g> = int f conj(g) u dA:

  * radial weights: monomials are already orthogonal, so e_n = z^n / sqrt(G_nn).
    Every radial weight is u = c (1 - |z|^2)^a, (c, a) = Weight.power, so
    G_nn = 2 pi int_0^1 r^(2n+1) u(r) dr = pi c B(n + 1, a + 1) is exact
    (quadrature.beta_moments), the model reports no refinement error, and it
    keeps no dense C = G^(-1/2) (see diagonal_congruence);
  * general weights: the monomial Gram matrix (quadrature.monomial_gram, one
    FFT per ring) is factored (Cholesky, then numpy forward substitution)
    into exactly lower-triangular coefficients.
    Every Gram taken by quadrature, the model's and the Toeplitz matrices of
    basis_gram alike, uses the polar rule of _gram_resolution.

The truncated kernel K_N(z, w) = sum e_n(z) conj(e_n(w)) is a polynomial, so
kernel norms never blow up and are integrated on the full disc (Gauss nodes
stay strictly interior).  Its monomial coefficients in z are
KernelModel.kernel_coefficients(w).  Integrals against u dA (kernel_norm,
kernel_norms, reproducing_check) take KernelModel.norm_rule, the
quadrature.density_rule of u: for a radial u, Gauss-Jacobi in |z|^2 with u
folded into its weights, which is exact for the reproducing pairing and for
||K_w||_2^2 and never evaluates u; for a general u, Gauss-Legendre in r with
u, evaluated once per call, folded into its weights.  Off a rule, kernels
and polynomials are Horner sums, and a radial model's diagonal forms
sum_n M_n / G_n |z|^(2n) (the kernel diagonal, a radial pair's Berezin
numerator) take one Horner pass per distinct |z|^2, with the forms that
share points in the same pass (_radial_forms); at the nodes of a centered
polar rule (the norm rule, the density rule of DiscMeasure.integrate_at)
every polynomial, kernel and quadratic form e^T M conj(e) (the kernel
diagonal, Berezin values) takes one FFT per ring (quadrature.ring_values),
so no per-node Horner or power table runs there.  A radial model's reproducing pairing <f, K_w> needs no node
values at all: its norm rule has one weight per ring, so the node sum is
taken ring by ring from the coefficients of f and K_w (quadrature.ring_pairing).

Sums of |K_N(w, z)|^t over the nodes of a polar rule, for t != 2, have one
primitive, _kernel_powers: kernel_norms is it on the norm rule, to the power
1/p, and the t-Berezin transform is its value on mu's density rule over its
value on the norm rule.  A radial model on a rule with one weight per ring
takes it once per distinct modulus, at the real point |z|: there the kernel's
ring coefficients are real, so its node values are conjugate-symmetric and
one real FFT per ring gives half of them (quadrature._real_ring_power_sum).
Any other model or rule takes every node at every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import DegeneracyError, DomainError
from .quadrature import (
    DiscQuadrature,
    _real_ring_power_sum,
    beta_moments,
    density_rule,
    monomial_gram,
    ring_pairing,
    ring_values,
)
from .weights import Weight, on_moduli

__all__ = [
    "KernelModel",
    "build_kernel_model",
    "kernel_eval",
    "kernel_diag",
    "kernel_norm",
    "kernel_norms",
    "polynomial_values",
    "reproducing_check",
]


# points per block of the basis off a rule: bounds its memory (a Berezin
# profile of an atomic measure on a 642-point lattice sets the peak RSS of a
# seeded CLI sweep: 49.1 MB unblocked, 47.8 MB at 512 points, 46.2 MB at 256)
_BASIS_CHUNK = 256


def polynomial_values(coefs, z):
    """sum_n c_n z^n at points z (Horner), or at every node of a centered polar rule z.

    On a rule the ring coefficients are c_n rho^n and quadrature.ring_values
    takes one FFT per ring; no per-node Horner runs there.
    """
    coefs = np.asarray(coefs, dtype=complex)
    if isinstance(z, DiscQuadrature):
        n = np.arange(coefs.size)
        return ring_values(z, lambda rho: coefs * rho[:, None] ** n)
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), coefs)


def _norm_resolution(degree):
    """(n_t, n_radial, n_angular) of a density_rule for f conj(g), f, g of degree <= N.

    n_t Gauss-Jacobi nodes integrate it exactly against a radial density.
    """
    n_angular = 1 << int(np.ceil(np.log2(max(2 * degree + 32, 128))))
    return degree // 2 + 2, max(degree + 16, 64), n_angular


def _gram_resolution(degree):
    """(n_radial, n_angular) of the polar rule of every Gram taken by quadrature."""
    return (
        max(degree + 16, DEFAULTS.density_radial),
        max(4 * degree + 64, DEFAULTS.density_angular),
    )


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Orthonormal basis and truncated kernel for A^2(u)."""

    weight: Weight
    degree: int
    coeffs: np.ndarray | None  # lower-triangular C with e_m = sum_j C[m, j] z^j; None if radial
    diag_norms: np.ndarray | None  # G_nn for radial weights, else None
    gram_residual: float
    gram_refinement_error: float

    @property
    def is_radial(self):
        return self.diag_norms is not None

    def basis_matrix(self, z):
        """e_n at the given points: shape (degree+1, len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        powers = np.empty((self.degree + 1, z.size), dtype=complex)
        powers[0] = 1.0
        for n in range(1, self.degree + 1):
            powers[n] = powers[n - 1] * z
        if self.is_radial:
            return powers / np.sqrt(self.diag_norms)[:, None]
        return self.coeffs @ powers

    def diagonal_congruence(self, A):
        """C^T A conj(C) = conj(C) A C^T for the radial C = diag(1 / sqrt(G_nn)), rows first."""
        s = 1.0 / np.sqrt(self.diag_norms)
        return s[:, None] * A * s

    def kernel_coefficients(self, w):
        """k with K_N(z, w) = sum_n k_n z^n: conj(w)^n / G_nn, or C^T conj(e(w))."""
        cw = np.cumprod(np.concatenate(([1.0], np.full(self.degree, np.conj(complex(w))))))
        if self.is_radial:
            return cw / self.diag_norms
        return self.coeffs.T @ (np.conj(self.coeffs) @ cw)

    def kernel(self, z, w):
        """K_N(z, w) against a single point w, at points z or at a centered polar rule."""
        return polynomial_values(self.kernel_coefficients(w), z)

    def quadratic_form(self, M, z):
        """e(z)^T M conj(e(z)), real, at points z or at a centered polar rule.

        M is Hermitian, or a vector taken as its diagonal; kernel_diag is M = I.
        With Q = C^T M conj(C) the form is sum_(j,k) Q[j, k] z^j conj(z)^k,
        which on a ring is b(0) + 2 Re sum_(d>=1) b(d) e^(i d theta) for the
        diagonal sums b(d) = sum_k Q[k + d, k] rho^(2k + d): one FFT per ring,
        with no (degree+1) x nodes array.  A radial model with a diagonal M has
        Q_nn = M_nn / G_nn, a real Horner sum in x = |z|^2: one value per ring,
        or off a rule one per distinct x (_radial_forms).
        """
        M = np.asarray(M)
        on_rule = isinstance(z, DiscQuadrature)
        n = np.arange(self.degree + 1)
        if self.is_radial and M.ndim == 1:
            if on_rule:
                q = M / self.diag_norms
                return np.real(ring_values(z, lambda rho: (rho[:, None] ** 2) ** n @ q[:, None]))
            return _radial_forms(self, M, z)
        if M.ndim == 1:
            M = np.diag(M)
        if not on_rule:
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            out = np.empty(z.size)
            for i in range(0, z.size, _BASIS_CHUNK):
                e = self.basis_matrix(z[i : i + _BASIS_CHUNK])
                out[i : i + _BASIS_CHUNK] = np.real((e * (M @ np.conj(e))).sum(axis=0))
            return out
        if self.is_radial:
            Q = self.diagonal_congruence(M)
        else:
            Q = self.coeffs.T @ M @ np.conj(self.coeffs)

        def coefficients(rho):
            powers = rho[:, None] ** np.arange(2 * self.degree + 1)
            b = np.empty((rho.size, self.degree + 1), dtype=complex)
            for d in n:
                b[:, d] = powers[:, d : 2 * self.degree + 1 - d : 2] @ np.diagonal(Q, -d)
            b[:, 1:] *= 2.0
            return b

        return np.real(ring_values(z, coefficients))

    def kernel_diag(self, z):
        """K_N(z, z) = sum_n |e_n(z)|^2, at points z or at a centered polar rule."""
        return self.quadratic_form(np.ones(self.degree + 1), z)

    def norm_rule(self):
        """Polar rule against u dA for integrands built from the basis: u's density_rule.

        A radial u = c (1 - |z|^2)^a rides in floor(N/2) + 2 Gauss-Jacobi
        nodes in t = |z|^2, which integrate f conj(g) exactly for polynomials
        f, g of degree <= N and never evaluate u; a general u is evaluated
        once on a Gauss-Legendre rule in r.
        """
        return density_rule(self.weight, *_norm_resolution(self.degree))

    def dump(self):
        out = {
            "degree": self.degree,
            "weight": self.weight.config(),
            "gram_residual": self.gram_residual,
            "gram_refinement_error": self.gram_refinement_error,
        }
        if self.is_radial:
            out["diag_norms"] = list(map(float, self.diag_norms))
        else:
            out["coeffs_real"] = np.real(self.coeffs).tolist()
            out["coeffs_imag"] = np.imag(self.coeffs).tolist()
        return out


def _solve_lower(L, B):
    """X with L X = B for a lower-triangular L, by forward substitution row by row.

    Row i of X takes only rows < i of X, so where B is lower-triangular (the
    identity, say) X is exactly lower-triangular: its upper entries are sums
    of products with exact zeros.
    """
    X = np.array(B, dtype=np.result_type(L, B), copy=True)
    for i in range(X.shape[0]):
        X[i] -= L[i, :i] @ X[:i]
        X[i] /= L[i, i]
    return X


def build_kernel_model(u: Weight, degree) -> KernelModel:
    """Orthonormalize monomials up to the given degree against u dA."""
    if degree < 1:
        raise DomainError("degree must be >= 1")
    degree = int(degree)
    if u.is_radial:
        c, a = u.power
        return KernelModel(u, degree, None, c * beta_moments(a, degree), 0.0, 0.0)

    n_radial, n_angular = _gram_resolution(degree)
    gram = monomial_gram(u, degree, n_radial, n_angular, 1.0)
    diag = np.real(np.diag(gram))
    if np.min(diag) <= 1e-12 * np.max(diag):
        raise DegeneracyError(
            "Gram matrix numerically singular; lower the degree or refine quadrature"
        )
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"Gram factorization failed: {exc}") from exc
    coeffs = _solve_lower(chol, np.eye(degree + 1, dtype=complex))
    resid_same = float(np.max(np.abs(coeffs @ gram @ coeffs.conj().T - np.eye(degree + 1))))
    gram2 = monomial_gram(u, degree, n_radial + n_radial // 2, n_angular * 2, 1.0)
    resid_fine = float(np.max(np.abs(coeffs @ gram2 @ coeffs.conj().T - np.eye(degree + 1))))
    if resid_same > 1e-8:
        raise DegeneracyError(f"orthonormalization residual {resid_same:.2e} above 1e-8")
    return KernelModel(u, degree, coeffs, None, resid_same, resid_fine)


def _radial_forms(m: KernelModel, diagonals, z):
    """sum_n M_n / G_n x^n at x = |z|^2, for a radial model and a diagonal M or a stack of them.

    diagonals is one row M (the result has z's shape) or rows M_1..M_k (the
    result has k rows of z's shape).  x is np.abs(z) ** 2, and one Horner
    pass (polyval, the rows as coefficient columns) runs on the distinct x
    alone, so points of one modulus share their values and diagonals that
    share points share the pass.  Each value sees the floating-point
    operations of a Horner sum of its own row at its own point.
    """
    q = np.asarray(diagonals) / m.diag_norms
    x = np.abs(np.asarray(z)) ** 2
    distinct, inverse = np.unique(x, return_inverse=True)
    values = np.polynomial.polynomial.polyval(distinct, q.T)
    out = values[..., np.ravel(inverse)].reshape(q.shape[:-1] + x.shape)
    return out[()] if out.ndim == 0 else out


def _truncated(m: KernelModel, coefs):
    """Monomial coefficients as a complex array; DomainError above the model's degree."""
    coefs = np.asarray(coefs, dtype=complex)
    if len(coefs) - 1 > m.degree:
        raise DomainError("polynomial degree exceeds the model truncation")
    return coefs


def kernel_eval(m: KernelModel, z, w):
    """K_N(z, w); Hermitian in (z, w)."""
    scalar = np.isscalar(z) or isinstance(z, complex)
    out = m.kernel(np.atleast_1d(np.asarray(z, dtype=complex)), w)
    return complex(out[0]) if scalar else out


def kernel_diag(m: KernelModel, z):
    scalar = np.isscalar(z) or isinstance(z, complex)
    out = m.kernel_diag(np.atleast_1d(np.asarray(z, dtype=complex)))
    return float(out[0]) if scalar else out


def _kernel_powers(m: KernelModel, rule, points, t):
    """sum_nodes w |K_N(w, z)|^t on a centered polar rule, at every point z.

    A radial model on a rule with one weight per ring (a radial density's)
    takes it once per distinct modulus (weights.on_moduli), at the real point
    x = |z|, whose ring coefficients (x rho)^n / G_nn are real; other models
    and rules take every node at every point.  A value that is not finite
    raises EvaluationError.
    """
    points = np.ravel(np.asarray(points, dtype=complex))
    rho, ring_weights = rule.rings
    if m.is_radial and ring_weights is not None:
        powers = rho[:, None] ** np.arange(m.degree + 1)

        def at(moduli):
            return np.array(
                [_real_ring_power_sum(rule, m.kernel_coefficients(x).real * powers, t) for x in moduli]
            )

        return on_moduli(at, points)
    return np.array([rule.weighted_sum(np.abs(m.kernel(rule, z)) ** t) for z in points])


def kernel_norms(m: KernelModel, points, p):
    """|| K_w ||_{A^p(u)} = (int |K(z, w)|^p u dA)^(1/p) at every point w, on the norm rule.

    The integrals are _kernel_powers on norm_rule: one rule and one weight
    evaluation serve all points, and a radial model takes each distinct
    modulus once, on half of each ring.  For p = 2 the norm must agree with
    sqrt(K(w, w)) (reproducing identity); that identity is asserted in the
    test-suite, not silently substituted.
    """
    if p <= 0:
        raise DomainError("kernel norm exponent must be positive")
    return _kernel_powers(m, m.norm_rule(), points, p) ** (1.0 / p)


def kernel_norm(m: KernelModel, w, p):
    """|| K_w ||_{A^p(u)}: kernel_norms at the one point w."""
    return float(kernel_norms(m, [w], p)[0])


def reproducing_check(m: KernelModel, coefs, w):
    """| <f, K_w> - f(w) | for the polynomial f with the given coefficients.

    The pairing is computed by quadrature on the norm rule (not via basis
    algebra), making this the fundamental self-test of the model plus its
    integration backbone.  A radial model's Gauss-Jacobi norm rule has one
    weight per ring, so the node sum is taken ring by ring from the monomial
    coefficients of f and K_w (quadrature.ring_pairing, discrete Parseval),
    with no node values; it is exact up to rounding.  A general model's rule
    carries u, which varies around each ring, and takes the node sum.
    """
    coefs = _truncated(m, coefs)
    rule = m.norm_rule()
    if m.is_radial:
        pairing = ring_pairing(rule, coefs, m.kernel_coefficients(w))
    else:
        pairing = np.sum(rule.weights * polynomial_values(coefs, rule) * np.conj(m.kernel(rule, w)))
    fw = polynomial_values(coefs, complex(w))
    return float(abs(pairing - fw))
