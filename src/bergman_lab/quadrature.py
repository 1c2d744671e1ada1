"""Deterministic quadrature on the unit disc and its sub-regions.

Every area integral in the package goes through a DiscQuadrature: a list of
complex nodes and positive weights.  Besides the disc itself, the rules cover
the two regions of geometry on which the paper states its conditions:

  * disc_rule(n_radial, n_angular, r_max) -- Gauss-Legendre in radius on
                                [0, r_max], uniform (trapezoid) grid in angle;
                                the centered polar rule against dA;
  * weighted_disc_rule(n_t, n_angular, c, a) -- the centered polar rule
                                against c (1 - |z|^2)^a dA (see below);
  * density_rule(v, n_t, n_radial, n_angular) -- against v dA: the
                                weighted_disc_rule of a radial v, else
                                disc_rule with v folded into the weights;
  * PseudoDisk Delta(z, r)   -- the same polar rule moved onto the disk's
                                Euclidean realization;
  * CarlesonSet S(a)         -- the half-disc preimage of S(|a|) under the
                                involution phi_|a|, mapped forward with the
                                Jacobian in the weights, turned by a / |a|.

region_quadrature builds the rule of one region; region_integrals integrates
over a family of them at once, bit for bit as their rules do one by one.

The Carleson rule deserves a comment: S(a) is a Mobius image of the half-disc
H_a = {Re(conj(a) z) <= 0}, and on H_a the Jacobian (1-|a|^2)^2 / |1-conj(a)z|^4
is smooth and bounded by 1, so integrating in preimage coordinates converges
fast where naive indicator filtering of a disc rule would stall at the circline
boundary of S(a).  As phi_a(e^(i phi) w) = e^(i phi) phi_|a|(w), the rule is
built at the real point |a| only, and S(a) takes its nodes turned by a / |a|.

Gauss rules come from two cached sources.  gauss_rule is Gauss-Legendre on
[-1, 1]; the polar and Carleson rules map it.  _jacobi_rings is Gauss-Jacobi
in t = |z|^2, from which weighted_disc_rule builds the polar rule for
c (1 - |z|^2)^a dA, the form of every radial weight and measure in the
package: the weight's own exponent, ring radii sqrt(t), trapezoid in angle,
and c (1 - t)^a folded into the weights.  On a ring
z^j conj(z)^k = rho^(j+k) e^(i (j-k) theta), and the trapezoid keeps only
j = k mod n_angular, where rho^(j+k) is a polynomial in t.  So n_t nodes
integrate such monomials against the weight exactly up to t-degree
2 n_t - 1; Gauss-Legendre in r does not resolve the (1 - t)^a factor.
Radial moments need no rule at all: they are the Beta values of
beta_moments.

On a centered polar rule a polynomial in z and conj(z) is, ring by ring, a
discrete Fourier sum in the angle: monomial_gram takes Grams and ring_values
takes values at the nodes with one FFT per ring (exact at the nodes, aliased
frequencies included).  Where the weights are constant on each ring,
ring_pairing takes the node sum of w f conj(g) for polynomials f and g from
their folded ring coefficients by discrete Parseval: the same sum, with no
FFT and no node values; and where a function's ring coefficients are real,
its values are conjugate-symmetric around each ring, so _real_ring_power_sum
takes sum w |f|^t from half of each ring.

Only Carleson sets take an acceptance test.  The polar rule (Gauss-Legendre
in r dr, trapezoid in angle) integrates constants exactly on every disk, so
for disks there is nothing to test; the Carleson rule carries the
non-polynomial Jacobian |phi_a'|^2, so its area moves with resolution.  It
is tested against the exact area of the region it covers, the image under
phi_a of the preimage half-disc cut at radius _CARLESON_R_INNER.  By Green's
theorem that area is (1/2) Im of the contour integral of
conj(phi_a(w) - a) phi_a'(w) dw around the preimage boundary (the arc and the
diameter), where phi_a(w) - a = -w (1 - |a|^2) / (1 - conj(a) w) carries no
cancellation however close |a| is to 1; a Gauss rule on each piece takes it
to rounding (the integrand is smooth on both pieces).

Rules are immutable and built per call; the caches keep O(rings) Gauss data:
  * gauss_rule     -- one Gauss-Legendre rule on [-1, 1];
  * _jacobi_rings  -- the ring radii and t-weights of one Gauss-Jacobi rule;
  * _polar_rule    -- one small polar rule, grid included (pseudo-disks, S(0));
  * _carleson_area -- the exact area of one Carleson region, by |a|.
Summation uses numpy's pairwise reduction in a fixed node order, so repeated
runs are bit-identical.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EvaluationError, PrecisionError
from .geometry import CarlesonSet, PseudoDisk

__all__ = [
    "DiscQuadrature",
    "gauss_rule",
    "beta_moments",
    "region_quadrature",
    "disc_rule",
    "weighted_disc_rule",
    "density_rule",
    "monomial_gram",
    "ring_values",
    "ring_pairing",
    "region_integrals",
]

# nodes per block of _region_blocks, which bounds memory and time (2-vCPU host: a seeded
# CLI sweep peaks at 43.1 MB with 2^13, 47.1 with 2^16; lattice disk masses 7 vs 11 ms)
_BLOCK_NODES = 1 << 13
_CARLESON_TOL = 1e-6
_CARLESON_MAX_RESOLUTION = 1024
# preimage radius at which Carleson rules stop; ROADMAP item 3 integrates out to 1
_CARLESON_R_INNER = 0.995


@dataclass(frozen=True, eq=False)
class DiscQuadrature:
    """An accepted quadrature rule: complex nodes, positive weights, region.

    region is the PseudoDisk or CarlesonSet the rule covers, or None for a
    centered polar rule (disc_rule, weighted_disc_rule, density_rule).  Such
    a rule knows its rings = (radii, ring weights or None if the weights vary
    around a ring); given nodes None, it builds them from its rings on their
    first read and holds them itself.  A region rule has no rings.
    """

    _nodes: np.ndarray | None
    weights: np.ndarray
    region: object
    resolution: int
    rings: tuple | None = None

    @property
    def nodes(self):
        if self._nodes is None:
            # node k of ring i, at k + i n_angular, is rho_i e^(2 pi i k / n_angular)
            n_angular = self.weights.size // self.resolution
            theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
            grid = (self.rings[0][:, None] * np.exp(1j * theta)[None, :]).ravel()
            object.__setattr__(self, "_nodes", *_read_only(grid))
        return self._nodes

    def integrate(self, f):
        """Sum weights * f(nodes); f must accept a complex numpy array."""
        return self.weighted_sum(f(self.nodes))

    def weighted_sum(self, values):
        """Sum weights * values given at the nodes, which are read only to name a non-finite one."""
        values = _finite(values, self.weights.shape, lambda: self.nodes)
        total = np.sum(self.weights * values)
        if np.isrealobj(values):
            return float(np.real(total))
        return complex(total)

    @property
    def area(self):
        return float(np.sum(self.weights))


def _finite_values(f, nodes):
    """f(nodes) broadcast to the nodes' shape; EvaluationError if not finite."""
    return _finite(f(nodes), nodes.shape, lambda: nodes)


def _finite(values, shape, nodes):
    """values broadcast to shape; EvaluationError naming the first node (of nodes()) not finite."""
    values = np.asarray(values)
    if values.shape != shape:
        values = np.broadcast_to(values, shape)
    if not np.all(np.isfinite(values)):
        raise EvaluationError(f"integrand not finite at node {nodes()[~np.isfinite(values)][0]}")
    return values


@lru_cache(maxsize=256)
def gauss_rule(n):
    """Read-only n-point Gauss-Legendre rule (nodes, weights) on [-1, 1].

    leggauss is looked up when the rule is built, so a caller that rebinds it
    on numpy sees every build.  One cache entry holds the 2 n floats of one n.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(x, w)


def _read_only(*arrays):
    """Freeze arrays that a cache shares with every caller or that a rule holds."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def beta_moments(exponent, degree):
    """pi B(n + 1, a + 1) = pi int_0^1 t^n (1 - t)^a dt for n = 0..degree.

    In closed form by the product recurrence G_0 = pi / (a + 1),
    G_n = G_(n-1) n / (n + a + 1), which keeps its relative error near
    sqrt(n) ulp (scipy.special.beta drifts to ~1e-12 by n = 1600).
    """
    a = float(exponent)
    if not a > -1.0:
        raise DomainError(f"Beta moments need exponent > -1, got {a}")
    n = np.arange(1, degree + 1)
    return np.cumprod(np.concatenate(([np.pi / (a + 1.0)], n / (n + a + 1.0))))


def _gauss_legendre(n, a, b):
    x, w = gauss_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@lru_cache(maxsize=256)
def _polar_rule(n_radial, n_angular, r_max):
    """disc_rule's grid, for _disk_map and the a = 0 Carleson rule; one entry holds nodes and weights."""
    rule = disc_rule(n_radial, n_angular, r_max)
    return rule.nodes, rule.weights


def _carleson_rule(rho, resolution):
    """Quadrature for S(rho), rho >= 0, built in the phi_rho preimage half-disc, 2 resolution angles."""
    if rho == 0:
        return _polar_rule(resolution, 2 * resolution, _CARLESON_R_INNER)
    # half-disc {Re(z) <= 0}: angles in [pi/2, 3 pi/2]
    r, wr = _gauss_legendre(resolution, 0.0, _CARLESON_R_INNER)
    theta, wtheta = _gauss_legendre(2 * resolution, 0.5 * np.pi, 1.5 * np.pi)
    z = r[:, None] * np.exp(1j * theta)[None, :]
    w2 = (wr * r)[:, None] * wtheta[None, :]
    jac = ((1.0 - rho**2) / np.abs(1.0 - rho * z) ** 2) ** 2
    nodes = (rho - z) / (1.0 - rho * z)
    return _read_only(nodes.ravel(), (w2 * jac).ravel())


def disc_rule(n_radial, n_angular, r_max=1.0):
    """Centered rule on the disk of radius r_max (nodes stay interior), built per call.

    Radial Gauss-Legendre from gauss_rule (exact for polynomial r-degree
    <= 2 n_radial - 1 including the r dr Jacobian), uniform trapezoid in
    angle; the node grid is built on the first read of nodes.
    """
    n_radial, n_angular = int(n_radial), int(n_angular)
    r, wr = _gauss_legendre(n_radial, 0.0, float(r_max))
    ring_weights = wr * r * (2.0 * np.pi / n_angular)
    weights = np.repeat(ring_weights, n_angular)
    return DiscQuadrature(None, *_read_only(weights), None, n_radial, _read_only(r, ring_weights))


def _jacobi_recurrence(n, a, x):
    """P_n^(a, 0)(x), dP_n/dx and 1 - x^2 by the three-term recurrence.

    1 - x^2 is taken as (1 - x)(1 + x), exact in its first factor near x = 1;
    1 - x*x loses the relative accuracy of the end weights there.
    """
    p0, p1 = np.ones_like(x), 0.5 * (a + (a + 2.0) * x)
    for k in range(2, n + 1):
        c = 2.0 * k + a
        p0, p1 = p1, (
            (c - 1.0) * (a * a + (c - 2.0) * c * x) * p1 - 2.0 * (k + a - 1.0) * (k - 1.0) * c * p0
        ) / (2.0 * k * (k + a) * (c - 2.0))
    c = 2.0 * n + a
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    # (2n + a)(1 - x^2) P_n' = n (a - (2n + a) x) P_n + 2 n (n + a) P_(n-1)
    dp = (n * (a - c * x) * p1 + 2.0 * n * (n + a) * p0) / (c * one_minus_x2)
    return p1, dp, one_minus_x2


def _jacobi_nodes(n, a):
    """Roots of P_n^(a, 0) on [-1, 1]: eigenvalues of the Jacobi matrix (Golub-Welsch)."""
    k = np.arange(1, n, dtype=float)
    c = 2.0 * k + a
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / (c * (c + 2.0))))
    off = 2.0 * k * (k + a) / (c * np.sqrt((c - 1.0) * (c + 1.0)))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


@lru_cache(maxsize=256)
def _jacobi_rings(n_t, a):
    """Ring radii sqrt(t) and t-weights of n_t-point Gauss-Jacobi for (1 - t)^a on [0, 1].

    One read-only entry holds the 2 n_t floats of one (n_t, a); weighted_disc_rule
    builds its rule from them.  The nodes are the eigenvalues of the Jacobi
    matrix in x = 2t - 1 (Golub-Welsch), polished by one Newton step on the
    recurrence; the weights are taken afresh as 1 / ((1 - x^2) P_n'(x)^2)
    (Hale-Townsend).  The t-moments agree with beta_moments within 2e-13
    relative for a in [-0.5, 2.5] up to n_t = 802 (scipy.special.roots_jacobi's
    weights are 9.2e-10 off there); they lose accuracy as a nears -1 (7e-11 at
    a = -0.9, n_t = 802).  numpy alone builds it: importing scipy.special
    would cost 0.3 s and 31 MB.
    """
    if not a > -1.0:
        raise DomainError(f"Gauss-Jacobi rule needs exponent > -1, got {a}")
    x = _jacobi_nodes(n_t, a)
    p, dp, _ = _jacobi_recurrence(n_t, a, x)
    x = x - p / dp
    _, dp, one_minus_x2 = _jacobi_recurrence(n_t, a, x)
    # the t-weights of (1 - t)^a: the x-weights 2^(a+1) / ((1 - x^2) P_n'^2) over 2^(a+1)
    return _read_only(np.sqrt(0.5 * (1.0 + x)), 1.0 / (one_minus_x2 * dp * dp))


def weighted_disc_rule(n_t, n_angular, c, a):
    """Centered polar rule for int f c (1 - |z|^2)^a dA, the weight folded in.

    Rings at rho = sqrt(t) from _jacobi_rings, trapezoid in angle; dA = dt dtheta / 2.
    Exact for z^j conj(z)^k up to t-degree 2 n_t - 1 (see the module docstring).
    """
    n_t, n_angular = int(n_t), int(n_angular)
    rho, wt = _jacobi_rings(n_t, float(a))
    ring_weights = wt * (np.pi * float(c) / n_angular)
    weights = np.repeat(ring_weights, n_angular)
    return DiscQuadrature(None, *_read_only(weights), None, n_t, (rho, *_read_only(ring_weights)))


def density_rule(v, n_t, n_radial, n_angular):
    """Centered polar rule for int f v dA, the Weight v folded into the weights.

    A radial v (v.power = (c, a)) gives weighted_disc_rule(n_t, n_angular, c, a)
    and is never evaluated; any other v is evaluated once on the nodes of
    disc_rule(n_radial, n_angular), built for this call only, and a value
    that is not finite raises EvaluationError.
    """
    if v.power is not None:
        return weighted_disc_rule(n_t, n_angular, *v.power)
    rule = disc_rule(n_radial, n_angular)
    weights = rule.weights * np.asarray(_finite_values(v, rule.nodes), dtype=float)
    return DiscQuadrature(rule.nodes, *_read_only(weights), None, rule.resolution, (rule.rings[0], None))


def monomial_gram(g, degree, n_radial, n_angular, r_max):
    """G[j, k] = sum w z^j conj(z)^k g(z) over the polar rule, j, k = 0..degree.

    On a ring, z^j conj(z)^k = rho^(j+k) e^(i (j-k) theta), so one real FFT per
    ring of w g gives G[j, k] = sum_rho rho^(j+k) ghat_rho(j - k), with
    ghat_rho(-m) = conj(ghat_rho(m)) and j - k taken mod n_angular (the rule's
    own sum, aliased or not).  The upper triangle is the conjugate of the lower,
    so G is Hermitian bit for bit.  g is real; non-finite values raise EvaluationError.
    The rule is disc_rule's, built for this call only.
    """
    rule = disc_rule(n_radial, n_angular, r_max)
    (rho, ring_weights), nodes = rule.rings, rule.nodes
    del rule  # its node-sized weights go before g runs: the Gram needs the ring weights only
    values = np.asarray(_finite_values(g, nodes), dtype=float).reshape(n_radial, n_angular)
    # ghat_rho(m) = sum_theta w g e^(i m theta) for m = 0..n_angular // 2
    half = np.conj(np.fft.rfft(ring_weights[:, None] * values, axis=1))
    powers = rho[:, None] ** np.arange(2 * degree + 1)
    gram = np.empty((degree + 1, degree + 1), dtype=complex)
    for d in range(degree + 1):
        m = d % n_angular
        ghat = half[:, m] if m <= n_angular // 2 else np.conj(half[:, n_angular - m])
        # the d-th subdiagonal, G[k + d, k] for k = 0..degree-d, has rho^(2k+d)
        sub = powers[:, d : 2 * degree + 1 - d : 2].T @ ghat
        k = np.arange(degree + 1 - d)
        gram[k + d, k] = sub
        gram[k, k + d] = np.conj(sub)
    return gram


def _ring_layout(rule, what):
    """(radii, ring weights, n_angular) of a centered polar rule, which carries its rings."""
    if rule.rings is None:
        raise DomainError(f"{what} needs a centered polar rule; {rule.region or 'this rule'} has no rings")
    return (*rule.rings, rule.weights.size // rule.resolution)


def _fold(coeffs, n_angular):
    """Ring coefficients a(d), one row per ring, each d >= n_angular added onto d mod n_angular."""
    if coeffs.shape[1] <= n_angular:
        return coeffs
    pad = -coeffs.shape[1] % n_angular
    return np.pad(coeffs, ((0, 0), (0, pad))).reshape(len(coeffs), -1, n_angular).sum(axis=1)


def ring_values(rule, coefficients):
    """sum_d a_rho(d) e^(i d theta) at every node of a centered polar rule, in node order.

    coefficients(rho) takes the ring radii and returns a_rho(d) for d = 0..D,
    one row per ring.  On a ring the sum is a discrete Fourier sum over the
    n_angular equispaced angles, so one inverse FFT per ring gives every node
    of it; frequencies d >= n_angular fold onto d mod n_angular, which is
    exact at the nodes.  A rule that is not a centered polar rule (disc_rule,
    weighted_disc_rule) raises DomainError.
    """
    rho, _, n_angular = _ring_layout(rule, "ring evaluation")
    coeffs = _fold(np.asarray(coefficients(rho)), n_angular)
    # the unscaled inverse DFT: sum_d a(d) e^(2 pi i d k / n), and theta_k = 2 pi k / n
    return np.fft.ifft(coeffs, n=n_angular, axis=1, norm="forward").ravel()


def ring_pairing(rule, f, g):
    """sum_nodes w f conj(g) for f = sum_j f_j z^j, g = sum_j g_j z^j, without node values.

    rule is a centered polar rule whose weights are constant on each ring
    (disc_rule, weighted_disc_rule); f and g are monomial coefficients.  On a
    ring of radius rho the values are discrete Fourier sums with coefficients
    a(d) = sum_(j = d mod n) f_j rho^j, folded as ring_values folds them, so
    by discrete Parseval the ring's node sum of f conj(g) is
    n_angular sum_d a(d) conj(b(d)); the pairing is the ring weights times
    these sums, equal to the node sum for every rule size, aliased or not.
    Other rules, and weights that vary around a ring, raise DomainError.
    """
    rho, ring_weights, n_angular = _ring_layout(rule, "ring pairing")
    if ring_weights is None:
        raise DomainError("ring pairing needs weights that are constant on each ring")
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    if max(f.size, g.size) <= n_angular:
        # no folding: only the frequencies both polynomials have meet
        f, g = f[: g.size], g[: f.size]
    a = _fold(f * rho[:, None] ** np.arange(f.size), n_angular)
    b = _fold(g * rho[:, None] ** np.arange(g.size), n_angular)
    k = min(a.shape[1], b.shape[1])
    ring_sums = n_angular * np.sum(a[:, :k] * np.conj(b[:, :k]), axis=1)
    return complex(ring_weights @ ring_sums)


def _real_ring_power_sum(rule, coeffs, t):
    """sum_nodes w |f|^t from half of each ring, for f = sum_d a_rho(d) e^(i d theta) with real a_rho(d).

    coeffs holds a_rho(d), one row per ring of a centered polar rule with one
    weight per ring.  Real coefficients make the node values
    conjugate-symmetric, f(-theta) = conj(f(theta)), so one real FFT per
    (folded) ring gives |f| at the angles 2 pi k / n_angular, k = 0..n_angular // 2,
    and node k shares its value with node n_angular - k: the ring's node sum
    takes them with weights 1, 2, ..., 2, 1 (1, 2, ..., 2 for odd n_angular).
    A value that is not finite raises EvaluationError.
    """
    rho, ring_weights, n_angular = _ring_layout(rule, "half-ring sums")
    values = np.abs(np.fft.rfft(_fold(coeffs, n_angular), n=n_angular, axis=1)) ** t
    half = np.arange(values.shape[1])
    values = _finite(values, values.shape, lambda: rho[:, None] * np.exp(2j * np.pi * half / n_angular))
    pair = np.where((half == 0) | (2 * half == n_angular), 1.0, 2.0)
    return float(ring_weights @ (values @ pair))


def _disk_map(disks, resolution):
    """The reference polar rule mapped onto pseudo-disks, one row per disk.

    Each PseudoDisk is its Euclidean disk, which lies inside the unit disc.
    R^2 is taken on python floats: numpy's square can differ in the last bit.
    """
    centers = np.array([d.euclid_center for d in disks])
    radii = [float(d.euclid_radius) for d in disks]
    base_nodes, base_weights = _polar_rule(resolution, 4 * resolution, 1.0)
    nodes = centers[:, None] + np.asarray(radii)[:, None] * base_nodes
    weights = np.array([rho**2 for rho in radii])[:, None] * base_weights
    return nodes, weights


@lru_cache(maxsize=256)
def _carleson_area(modulus):
    """Exact area of the region a Carleson rule covers, phi_a of the half-disc cut at _CARLESON_R_INNER.

    The area depends on |a| alone; take a = modulus >= 0 real.  The preimage
    boundary runs counterclockwise along the arc w = R e^(i theta), theta in
    [pi/2, 3 pi/2], where conj(w) dw = i R^2 dtheta, and up the diameter
    w = i y, y in [-R, R], where conj(w) dw = y dy; on both pieces
    conj(phi_a(w) - a) phi_a'(w) = conj(w) (1 - a^2)^2 / ((1 - a conj(w)) (1 - a w)^2),
    smooth, and taken on 128 Gauss nodes per piece.  Within 1e-14 (relative)
    of resolution-400 rules for |a| up to 1 - 2^-20.  One cache entry holds
    the one float of one |a|.
    """
    R = _CARLESON_R_INNER
    if modulus == 0:
        return np.pi * R * R
    a = float(modulus)
    x, w = gauss_rule(128)
    e = np.exp(1j * np.pi * (1.0 + 0.5 * x))
    arc = 0.5 * np.pi * np.sum(w * 1j * R * R / ((1.0 - a * R * np.conj(e)) * (1.0 - a * R * e) ** 2))
    y = R * x
    diameter = R * np.sum(w * y / ((1.0 + 1j * a * y) * (1.0 - 1j * a * y) ** 2))
    s = (1.0 - a) * (1.0 + a)
    return 0.5 * s * s * float(np.imag(arc + diameter))


def region_quadrature(region, resolution=48):
    """The rule of a PseudoDisk or a CarlesonSet; only Carleson rules take an acceptance test.

    Other regions raise DomainError.  Disks take the requested rule: it
    integrates constants exactly there.  The rule of S(a) is that of S(|a|),
    nodes turned by a / |a|, kept when its area is within _CARLESON_TOL of
    the exact area of the region it covers, relative to that area
    (_carleson_area); otherwise the rule of twice the resolution is tried in
    turn, up to _CARLESON_MAX_RESOLUTION, and then PrecisionError is raised.
    """
    if not isinstance(region, CarlesonSet):
        _, nodes, weights = next(_region_blocks([region], resolution))
        return DiscQuadrature(*_read_only(nodes[0], weights[0]), region, int(resolution))
    if resolution < 4:
        raise DomainError("resolution must be at least 4")
    res = int(resolution)
    rho = abs(region.anchor)
    exact = _carleson_area(rho)
    while True:
        nodes, weights = _carleson_rule(rho, res)
        error = abs(float(np.sum(weights)) - exact)
        if error <= _CARLESON_TOL * exact:
            turn = cmath.exp(1j * cmath.phase(region.anchor))  # |turn| = 1 for a subnormal a too
            return DiscQuadrature(*_read_only(nodes * turn), weights, region, res)
        if 2 * res > _CARLESON_MAX_RESOLUTION:
            raise PrecisionError(
                f"region {region} not resolved at resolution {res} "
                f"(area off the exact {exact:.6e} by {error / exact:.3e} relative)"
            )
        res *= 2


def _region_blocks(regions, resolution):
    """Blocks (index, nodes, weights): row k is region_quadrature(regions[index[k]], resolution).

    weights holds one row per region, or one row the block shares.  Disks
    go in blocks of at most _BLOCK_NODES nodes; the Carleson sets of one
    modulus (Python's abs) share one rule of S(|a|), turned to each anchor.
    Other regions raise DomainError.
    """
    if resolution < 4:
        raise DomainError("resolution must be at least 4")
    disks, moduli = [], {}
    for k, region in enumerate(regions):
        if isinstance(region, PseudoDisk):
            disks.append(k)
        elif isinstance(region, CarlesonSet):
            moduli.setdefault(abs(region.anchor), []).append(k)
        else:
            raise DomainError(f"quadrature needs a PseudoDisk or a CarlesonSet, not {region!r}")
    step = max(1, _BLOCK_NODES // (4 * resolution * resolution))
    for i in range(0, len(disks), step):
        index = disks[i : i + step]
        yield (index, *_disk_map([regions[k] for k in index], resolution))
    for rho, ks in moduli.items():
        # by module name: a tracer that wraps region_quadrature counts one build per modulus
        base = region_quadrature(CarlesonSet(rho), resolution)
        step = max(1, _BLOCK_NODES // base.weights.size)
        for i in range(0, len(ks), step):
            index = ks[i : i + step]
            turns = np.array([cmath.exp(1j * cmath.phase(regions[k].anchor)) for k in index])
            yield index, base.nodes * turns[:, None], base.weights[None, :]


def region_integrals(f, regions, resolution):
    """int f dA over each PseudoDisk or CarlesonSet in regions, as an array.

    Entry k equals region_quadrature(regions[k], resolution).integrate(f)
    bit for bit; the rules come in the blocks of _region_blocks.
    """
    out = np.empty(len(regions))
    for index, nodes, weights in _region_blocks(regions, resolution):
        out[index] = (weights * _finite_values(f, nodes)).sum(axis=1)
    return out
