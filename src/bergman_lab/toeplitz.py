"""Finite Toeplitz matrices in the A^2(u) basis and their spectral theory.

The Toeplitz operator of a positive measure mu acts on the truncated model
through the matrix M[m, n] = int e_n conj(e_m) dmu, which is Hermitian and
positive semidefinite; for a radial pair it is diagonal, kept as a 1-D array
whose sorted entries are the eigenvalues.  For A atoms it has rank <= A and
is kept as its (N+1) x A factor B, M = B B^H: its spectra come from the
A x A kernel matrix B^H B, padded with exact zeros, and the dense matrix is
built only when read.  On top of the matrix sit:

  * spectrum        -- descending eigenvalues (= singular values, positivity)
  * trace identity  -- sum of eigenvalues against an independent quadrature
                       of int K_N(w, w) dmu
  * apply           -- T_mu f both as a direct integral and as matrix action
  * essential norm  -- boundary-ladder estimate of limsup mu~_t(z) / u(Delta)^e
  * Schatten tests  -- the integral criterion int h(C mu~) K_N u dA and the
                       eigenvalue sum  sum_k h(C lambda_k), with its growth
                       under truncation doubling (schatten_membership_report)

Everything reports trends rather than asserting unspecified constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import _bc_pass, qlp_index
from .errors import DegeneracyError, DomainError
from .geometry import BoundaryLadder
from .kernels import (
    KernelModel,
    _norm_resolution,
    _radial_forms,
    _solve_lower,
    _truncated,
    polynomial_values,
)
from .measures import DiscMeasure, basis_gram
from .quadrature import density_rule, disc_rule, gauss_rule
from .reports import CriterionReport, band, classify_ring_trend
from .weights import Weight

__all__ = [
    "ToeplitzMatrix",
    "Spectrum",
    "assemble",
    "spectrum",
    "trace_identity_check",
    "apply_toeplitz",
    "matrix_apply",
    "pairing_check",
    "essential_norm_estimate",
    "h_function",
    "schatten_integral",
    "schatten_membership_report",
]


def _hermitian(entries):
    """A dense matrix made Hermitian, 0.5 (M + M^H); DegeneracyError if its defect is not rounding."""
    entries = entries.astype(complex, copy=False)
    scale = float(np.max(np.abs(entries))) or 1.0
    herm = float(np.max(np.abs(entries - entries.conj().T)))
    if herm > 1e-10 * scale:
        raise DegeneracyError(f"assembled matrix not Hermitian: defect {herm:.2e}")
    return 0.5 * (entries + entries.conj().T)


class ToeplitzMatrix:
    """Hermitian PSD matrix of T_mu in the A^2(u) basis; gram keeps a diagonal one as a 1-D array."""

    def __init__(self, model: KernelModel, measure: DiscMeasure, entries):
        gram = np.asarray(entries)
        if gram.ndim == 1 and np.iscomplexobj(gram):
            raise DegeneracyError("diagonal operator with complex entries is not Hermitian")
        self.model = model
        self.measure = measure
        self.gram = _hermitian(gram) if gram.ndim == 2 else gram
        self._eigs = None

    @property
    def size(self):
        return self.gram.shape[0]

    @property
    def entries(self):
        """The dense complex matrix; a diagonal operator builds it on each read."""
        return np.diag(self.gram).astype(complex) if self.gram.ndim == 1 else self.gram

    def _block_eigenvalues(self, k):
        """Ascending eigenvalues of the leading k x k block (a diagonal's sorted prefix)."""
        g = self.gram
        return np.sort(g[:k]) if g.ndim == 1 else np.linalg.eigvalsh(g[:k, :k])

    def eigenvalues(self):
        """Eigenvalues of the Hermitian matrix, descending; cached."""
        if self._eigs is None:
            vals = self._block_eigenvalues(self.size)[::-1]
            scale = max(float(vals[0]), 1.0e-300)
            if vals[-1] < -1e-8 * scale:
                raise DegeneracyError(
                    f"matrix not PSD: min eigenvalue {vals[-1]:.2e}"
                )
            self._eigs = np.maximum(np.real(vals), 0.0)
        return self._eigs

    def operator_norm(self):
        return float(self.eigenvalues()[0])


class _AtomicToeplitz(ToeplitzMatrix):
    """T_mu of atoms (a_l, m_l), kept as its factor B = conj(E) sqrt(m): M = B B^H.

    E = basis_matrix of the atoms is (N+1) x A.  The leading k x k block of M
    is B[:k] B[:k]^H, whose nonzero eigenvalues are those of the A x A matrix
    B[:k]^H B[:k] = [sqrt(m_i m_j) K_(k-1)(a_i, a_j)] (the truncated kernel
    of e_0..e_(k-1)): a block larger than A solves that matrix and pads with
    exact zeros, a smaller one solves its own k x k matrix.  The dense matrix
    is built on its first read, and made Hermitian as the dense path is.
    """

    def __init__(self, model: KernelModel, measure: DiscMeasure):
        masses = np.array([mz for _, mz in measure.atoms])
        self.model = model
        self.measure = measure
        self._factor = np.conj(model.basis_matrix(measure.atom_points())) * np.sqrt(masses)
        self._gram = None
        self._eigs = None

    @property
    def size(self):
        return self._factor.shape[0]

    @property
    def gram(self):
        if self._gram is None:
            self._gram = _hermitian(self._factor @ self._factor.conj().T)
        return self._gram

    def _block_eigenvalues(self, k):
        B = self._factor[:k]
        if B.shape[1] >= k:
            return np.linalg.eigvalsh(B @ B.conj().T)
        small = np.linalg.eigvalsh(B.conj().T @ B)
        return np.sort(np.concatenate((np.zeros(k - small.size), small)))


@dataclass(frozen=True)
class Spectrum:
    """Descending nonnegative eigenvalues of a positive Toeplitz matrix."""

    eigenvalues: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise DomainError("spectrum must be sorted descending")
        object.__setattr__(self, "eigenvalues", vals)

    def to_csv(self):
        lines = ["k,lambda"]
        lines += [f"{k},{v!r}" for k, v in enumerate(self.eigenvalues)]
        return "\n".join(lines) + "\n"


def assemble(mu: DiscMeasure, m: KernelModel) -> ToeplitzMatrix:
    """Toeplitz matrix M[m, n] = int e_n conj(e_m) dmu; an atomic mu keeps its factor."""
    if mu.kind == "atomic":
        return _AtomicToeplitz(m, mu)
    return ToeplitzMatrix(m, mu, basis_gram(m, mu))


def spectrum(T: ToeplitzMatrix) -> Spectrum:
    return Spectrum(tuple(T.eigenvalues()))


def trace_identity_check(T: ToeplitzMatrix, mu: DiscMeasure, m: KernelModel):
    """| sum_k lambda_k - int K_N(w, w) dmu |, by independent quadrature.

    A density takes its density_rule at the norm rule's size: a radial one,
    c (1 - |z|^2)^t, rides in Gauss-Jacobi weights that integrate K_N(w, w)
    against it exactly; others are evaluated on a Gauss-Legendre rule.
    """
    lam = float(np.sum(T.eigenvalues()))
    if mu.kind == "atomic":
        integral = float(mu.integrate_at(m.kernel_diag))
    else:
        rule = density_rule(mu.density, *_norm_resolution(m.degree))
        integral = float(np.sum(rule.weights * m.kernel_diag(rule)))
    return abs(lam - integral)


def apply_toeplitz(mu: DiscMeasure, m: KernelModel, coefs, z):
    """T_mu f(z) = int f(w) K(z, w) dmu(w) for the polynomial f (monomial coefs)."""
    coefs = _truncated(m, coefs)
    z = complex(z)
    # K(z, w) = conj(K(w, z)) by Hermitian symmetry of the kernel
    return complex(
        mu.integrate_at(lambda w: polynomial_values(coefs, w) * np.conj(m.kernel(w, z)))
    )


def _basis_coordinates(m: KernelModel, coefs):
    """Coordinates a with f = sum_m a_m e_m for monomial coefficients of f."""
    coefs = _truncated(m, coefs)
    c = np.zeros(m.degree + 1, dtype=complex)
    c[: len(coefs)] = coefs
    if m.is_radial:
        return c * np.sqrt(m.diag_norms)
    # basis_matrix = C @ powers with C lower-triangular, so powers = C^-1 e
    # and f = c . powers = (C^-T c) . e; reversing rows and columns turns the
    # upper-triangular C^T into a lower-triangular matrix
    return _solve_lower(m.coeffs.T[::-1, ::-1], c[::-1])[::-1]


def matrix_apply(T: ToeplitzMatrix, coefs, z):
    """T_mu f(z) via the matrix action on f's basis coordinates."""
    a = _basis_coordinates(T.model, coefs)
    # a 1-D gram is a diagonal: T.entries would build the dense matrix
    b = T.gram * a if T.gram.ndim == 1 else T.gram @ a
    e = T.model.basis_matrix(np.array([complex(z)]))[:, 0]
    return complex(np.sum(b * e))


def pairing_check(mu: DiscMeasure, m: KernelModel, fcoefs, gcoefs):
    """| <T_mu f, g>_{A^2(u)} - int f conj(g) dmu | for polynomial pairs."""
    fa = _basis_coordinates(m, fcoefs)
    ga = _basis_coordinates(m, gcoefs)
    M = basis_gram(m, mu)
    # a 1-D M is a diagonal, on which M @ fa would be a dot product
    lhs = complex(np.sum((M * fa if M.ndim == 1 else M @ fa) * np.conj(ga)))

    rhs = complex(
        mu.integrate_at(
            lambda w: polynomial_values(fcoefs, w) * np.conj(polynomial_values(gcoefs, w))
        )
    )
    return abs(lhs - rhs)


def essential_norm_estimate(
    mu: DiscMeasure, u: Weight, p, q, t, r, ladder: BoundaryLadder, m: KernelModel
) -> CriterionReport:
    """Boundary estimate of ||T_mu||_e ~ limsup mu~_t(z) / u(Delta(z,r))^(1/p - 1/q).

    The quantities are those of criteria.compactness_index.  For 0 < q < p a
    bounded T_mu is automatically compact, so the estimate is 0 whenever
    criteria.qlp_index reads the L^{pq/(p-q)} norm of mu^_r finite.
    """
    if p <= 0 or q <= 0:
        raise DomainError("exponents must be positive")
    params = {"p": p, "q": q, "t": t, "r": r}
    if q < p:
        qlp = qlp_index(mu, u, m, p, q, t, r)
        finite = qlp.verdict == "finite"
        return CriterionReport(
            name="essential_norm",
            parameters=params,
            index_value=0.0 if finite else float("inf"),
            per_point=[],
            ring_trend=[],
            verdict="vanishing" if finite else "divergent",
            extras={
                "regime": "q<p",
                "qlp_norm": qlp.index_value,
                "qlp_tail_slope": qlp.extras["tail_slope"],
                "note": "bounded implies compact when q < p; estimate 0",
            },
        )

    points, _, tb, rings_avg, rings_tb = _bc_pass(mu, u, m, p, q, t, r, ladder)
    verdict = classify_ring_trend(rings_tb)
    return CriterionReport(
        name="essential_norm",
        parameters=params,
        index_value=rings_tb[-1],
        per_point=list(zip(points, tb)),
        ring_trend=list(zip(ladder.radii, rings_tb)),
        verdict="bounded" if verdict == "finite" else verdict,
        extras={
            "regime": "p<=q",
            "ring_max_berezin": rings_tb,
            "ring_max_average": rings_avg,
            "average_trend_verdict": classify_ring_trend(rings_avg),
            "last_ring_average": rings_avg[-1],
        },
    )


def h_function(spec):
    """Resolve a monotone function spec to (name, callable).

    Accepted specs: ("power", p) with p >= 1, a dict {"kind": "power", "p": p},
    {"kind": "table", "x": [...], "y": [...]} (nondecreasing samples,
    interpolated), or a bare callable.
    """
    if callable(spec):
        return getattr(spec, "__name__", "custom"), spec
    if isinstance(spec, (tuple, list)) and len(spec) == 2 and spec[0] == "power":
        spec = {"kind": "power", "p": spec[1]}
    if not isinstance(spec, dict):
        raise DomainError(f"unrecognized h spec {spec!r}")
    kind = spec.get("kind")
    if kind == "power":
        pw = float(spec["p"])
        if not 1.0 <= pw < np.inf:
            raise DomainError(f"power h requires a finite exponent >= 1, got {pw}")
        return f"power({pw:g})", lambda x: np.asarray(x, dtype=float) ** pw
    if kind == "table":
        xs = np.asarray(spec["x"], dtype=float)
        ys = np.asarray(spec["y"], dtype=float)
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) < 0):
            raise DomainError("table h must have increasing x and nondecreasing y")
        return "table", lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)
    raise DomainError(f"unrecognized h spec kind {kind!r}")


def _schatten_values(M, m, hfun, C, sweep):
    """int_{|z|<R} h(C mu~_2) K_N(z, z) u dA for each outer radius R of sweep.

    A diagonal M (basis_gram of a radial pair) takes a 2 pi r dr Gauss rule
    of 200 nodes per R, and the nodes of every R go through one Horner pass
    for both the numerator and K_N(z, z) (kernels._radial_forms); a dense M
    takes disc_rule(200, 800, R) per R.
    """
    u = m.weight
    if M.ndim == 1:
        x, w = gauss_rule(200)
        radii = [0.5 * r_out * (x + 1.0) for r_out in sweep]
        forms = _radial_forms(m, [M, np.ones(m.degree + 1)], np.concatenate(radii).astype(complex))
        values = []
        for r_out, rr, num, kd in zip(sweep, radii, *forms.reshape(2, len(sweep), x.size)):
            wts = 0.5 * r_out * w * 2.0 * np.pi * rr
            uv = np.asarray(u(rr.astype(complex)), dtype=float)
            values.append(float(np.sum(wts * hfun(C * (num / kd)) * kd * uv)))
        return values
    values = []
    for r_out in sweep:
        at = disc_rule(200, 800, r_out)
        kd = m.kernel_diag(at)
        bz = m.quadratic_form(M, at) / kd
        uv = np.asarray(u(at.nodes), dtype=float)
        values.append(float(np.sum(at.weights * hfun(C * bz) * kd * uv)))
    return values


def schatten_integral(
    mu: DiscMeasure,
    m: KernelModel,
    h,
    C=1.0,
    sweep=(0.99, 0.995, 0.999),
) -> CriterionReport:
    """Integral test for T_mu in S_h: trend of int h(C mu~_2) K_N(z, z) u dA.

    The integrand weighs h(C mu~_2) by the truncated kernel diagonal
    K_N(z, z), on 200 radial Gauss nodes.  The verdict compares
    the value across the outer-radius sweep: stable within 5% reads
    convergent, growth by 2x or more reads divergent.

    extras["degree_times_gap"] lists N (1 - R) for each sweep radius R, with
    N the kernel degree.  A degree-N kernel resolves scales down to about
    1/N, so a radius where N (1 - R) is O(1) carries kernel-truncation bias:
    at N = 1600 the sweep reads [16, 8, 1.6], and for mu = (1 - |w|^2)^t dA
    its last value is off the exact-kernel integral by 6.0e-4 (t = 0.8) and
    6.9e-3 (t = 0.3) relative.  The list is reported only; no value or verdict
    depends on it.
    """
    if not 0.0 < C < np.inf:
        raise DomainError(f"Schatten constant C must be positive and finite, got {C}")
    hname, hfun = h_function(h)
    values = _schatten_values(basis_gram(m, mu), m, hfun, C, sweep)
    ratio = values[-1] / values[0] if values[0] > 0 else float("inf")
    # change measured against the final (largest) value: a convergent tail
    # contributes a shrinking fraction of the limit
    change = abs(values[-1] - values[0]) / values[-1] if values[-1] > 0 else 0.0
    if not all(np.isfinite(values)) or ratio >= 2.0:
        verdict = "divergent"
    elif change < 0.05:
        verdict = "finite"
    else:
        verdict = "inconclusive"
    return CriterionReport(
        name="schatten_integral",
        parameters={"h": hname, "C": C},
        index_value=values[-1],
        per_point=[],
        ring_trend=list(zip(sweep, values)),
        verdict=verdict,
        extras={
            "sweep_radii": list(sweep),
            "sweep_values": values,
            "sweep_ratio": ratio,
            "value_band": band(values),
            "degree_times_gap": [m.degree * (1.0 - R) for R in sweep],
        },
    )


def schatten_membership_report(T: ToeplitzMatrix, h, C=1.0) -> CriterionReport:
    """Membership sum plus its growth under truncation doubling.

    The sums over the leading principal blocks of sizes max(2, n//4),
    max(2, n//2) and n, with n = N+1 the matrix size (200, 400 and 801 at
    degree N = 800), are nested lower bounds (eigenvalue interlacing); a
    stable tail (last doubling within 5%) reads convergent, growth by 15% or
    more reads divergent.  index_value is the sum over the full spectrum,
    which is T.eigenvalues() read in ascending order: the one solve T caches,
    so a matrix that eigenvalues() refuses as not PSD is refused here too.
    """
    if not 0.0 < C < np.inf:
        raise DomainError(f"Schatten constant C must be positive and finite, got {C}")
    hname, hfun = h_function(h)
    n = T.size
    sizes = sorted({max(2, n // 4), max(2, n // 2), n})
    sums = []
    for k in sizes:
        lam = T.eigenvalues()[::-1] if k == n else np.maximum(T._block_eigenvalues(k), 0.0)
        sums.append(float(np.sum(hfun(C * lam))))
    ratio = sums[-1] / sums[-2] if len(sums) > 1 and sums[-2] > 0 else 1.0
    # a divergent eigenvalue sum keeps growing by a fixed factor per doubling
    # (e.g. lambda_k ~ k^-a gives 2^(1-2a)); a convergent one flattens out
    if not all(np.isfinite(sums)) or ratio >= 1.15:
        verdict = "divergent"
    elif abs(ratio - 1.0) < 0.05:
        verdict = "finite"
    else:
        verdict = "inconclusive"
    return CriterionReport(
        name="schatten_membership",
        parameters={"h": hname, "C": C, "degree": T.model.degree},
        index_value=sums[-1],
        per_point=[],
        ring_trend=list(zip([float(k) for k in sizes], sums)),
        verdict=verdict,
        extras={"block_sizes": sizes, "block_sums": sums, "doubling_ratio": ratio},
    )
