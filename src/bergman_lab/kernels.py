"""Truncated reproducing-kernel model of the weighted Bergman space A^2(u).

The model carries an orthonormal polynomial basis e_0..e_N for the inner
product  <f, g> = int f conj(g) u dA:

  * radial weights: monomials are already orthogonal, so e_n = z^n / sqrt(G_nn).
    Every radial weight the package builds is u = c (1 - |z|^2)^a, so
    G_nn = 2 pi int_0^1 r^(2n+1) u(r) dr = pi c B(n + 1, a + 1) is exact
    (quadrature.beta_moments) and the model reports no refinement error;
  * general weights: the monomial Gram matrix (quadrature.monomial_gram, one
    FFT per ring) is factored (Cholesky) into lower-triangular coefficients.
    Every Gram taken by quadrature, the model's and the Toeplitz matrices of
    basis_gram alike, uses the polar rule of _gram_resolution.

The truncated kernel K_N(z, w) = sum e_n(z) conj(e_n(w)) is a polynomial, so
kernel norms never blow up and are integrated on the full disc (radial
Gauss-Legendre nodes stay strictly interior).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import DegeneracyError, DomainError
from .quadrature import beta_moments, disc_rule, monomial_gram
from .weights import Weight

__all__ = [
    "KernelModel",
    "build_kernel_model",
    "kernel_eval",
    "kernel_diag",
    "kernel_norm",
    "NormalizedKernel",
    "normalized_kernel",
    "reproducing_check",
]


def _radial_power(u: Weight):
    """(c, a) with u = c (1 - |z|^2)^a; DomainError for any other radial kind."""
    if u.kind == "constant":
        return u.params["value"], 0.0
    if u.kind == "standard":
        return 1.0, u.params["alpha"]
    raise DomainError(f"radial weight kind {u.kind!r} has no closed-form monomial norms")


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
    coeffs: np.ndarray  # lower-triangular C with e_m = sum_j C[m, j] z^j
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

    def kernel(self, z, w):
        """K_N(z, w) for arrays z against a single point w."""
        w = complex(w)
        if self.is_radial:
            # K(z, w) = sum_n (z conj(w))^n / G_nn: Horner in x = z conj(w)
            x = np.asarray(z, dtype=complex) * np.conj(w)
            return np.polynomial.polynomial.polyval(x, 1.0 / self.diag_norms)
        ew = np.conj(self.basis_matrix(np.array([w]))[:, 0])
        return (ew[:, None] * self.basis_matrix(z)).sum(axis=0)

    def kernel_diag(self, z):
        """K_N(z, z), real and nonnegative."""
        e = self.basis_matrix(z)
        return np.real((e * np.conj(e)).sum(axis=0))

    def norm_rule(self):
        """Disc rule exact enough for integrands built from the basis."""
        n_r = max(self.degree + 16, 64)
        n_t = 1 << int(np.ceil(np.log2(max(2 * self.degree + 32, 128))))
        return disc_rule(n_r, n_t, 1.0)

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


def build_kernel_model(u: Weight, degree) -> KernelModel:
    """Orthonormalize monomials up to the given degree against u dA."""
    if degree < 1:
        raise DomainError("degree must be >= 1")
    degree = int(degree)
    if u.is_radial:
        c, a = _radial_power(u)
        norms = c * beta_moments(a, degree)
        coeffs = np.diag(1.0 / np.sqrt(norms)).astype(complex)
        return KernelModel(u, degree, coeffs, norms, 0.0, 0.0)

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
    from scipy.linalg import solve_triangular

    coeffs = solve_triangular(chol, np.eye(degree + 1, dtype=complex), lower=True)
    resid_same = float(np.max(np.abs(coeffs @ gram @ coeffs.conj().T - np.eye(degree + 1))))
    gram2 = monomial_gram(u, degree, n_radial + n_radial // 2, n_angular * 2, 1.0)
    resid_fine = float(np.max(np.abs(coeffs @ gram2 @ coeffs.conj().T - np.eye(degree + 1))))
    if resid_same > 1e-8:
        raise DegeneracyError(f"orthonormalization residual {resid_same:.2e} above 1e-8")
    return KernelModel(u, degree, coeffs, None, resid_same, resid_fine)


def kernel_eval(m: KernelModel, z, w):
    """K_N(z, w); Hermitian in (z, w)."""
    scalar = np.isscalar(z) or isinstance(z, complex)
    out = m.kernel(np.atleast_1d(np.asarray(z, dtype=complex)), w)
    return complex(out[0]) if scalar else out


def kernel_diag(m: KernelModel, z):
    scalar = np.isscalar(z) or isinstance(z, complex)
    out = m.kernel_diag(np.atleast_1d(np.asarray(z, dtype=complex)))
    return float(out[0]) if scalar else out


def kernel_norm(m: KernelModel, w, p):
    """|| K_w ||_{A^p(u)} = (int |K(z, w)|^p u dA)^(1/p) by quadrature.

    For p = 2 this must agree with sqrt(K(w, w)) (reproducing identity);
    that identity is asserted in the test-suite, not silently substituted.
    """
    if p <= 0:
        raise DomainError("kernel norm exponent must be positive")
    rule = m.norm_rule()
    kv = m.kernel(rule.nodes, w)
    uvals = np.asarray(m.weight(rule.nodes), dtype=float)
    val = np.sum(rule.weights * uvals * np.abs(kv) ** p)
    return float(val ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class NormalizedKernel:
    """k_{t,w} = K(., w) / ||K_w||_{A^t(u)}, evaluable on arrays."""

    base: KernelModel
    at: complex
    exponent: float
    norm_value: float

    def __call__(self, z):
        return self.base.kernel(np.asarray(z, dtype=complex), self.at) / self.norm_value


def normalized_kernel(m: KernelModel, w, t=2.0) -> NormalizedKernel:
    if t <= 0:
        raise DomainError("normalization exponent must be positive")
    return NormalizedKernel(m, complex(w), float(t), kernel_norm(m, w, t))


def reproducing_check(m: KernelModel, coefs, w):
    """| <f, K_w> - f(w) | for the polynomial f with the given coefficients.

    The pairing is computed by quadrature (not via basis algebra), making this
    the fundamental self-test of the model plus its integration backbone.
    """
    coefs = np.asarray(coefs, dtype=complex)
    if len(coefs) - 1 > m.degree:
        raise DomainError("polynomial degree exceeds the model truncation")
    rule = m.norm_rule()
    fvals = np.polynomial.polynomial.polyval(rule.nodes, coefs)
    kv = m.kernel(rule.nodes, complex(w))
    uvals = np.asarray(m.weight(rule.nodes), dtype=float)
    pairing = np.sum(rule.weights * uvals * fvals * np.conj(kv))
    fw = np.polynomial.polynomial.polyval(complex(w), coefs)
    return float(abs(pairing - fw))
