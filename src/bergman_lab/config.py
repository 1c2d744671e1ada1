"""Package-wide numerical defaults.

Values here are the single source for truncation and resolution choices so
that the CLI, the verification suite, and ad-hoc use agree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Defaults", "DEFAULTS"]


@dataclass(frozen=True)
class Defaults:
    # basis truncation
    degree_radial: int = 200
    # outer truncation radius for criteria / profile integrals; basis and
    # kernel-norm integrands are polynomials and use the full disc instead
    r_max: float = 0.995
    # quadrature resolutions (radial node counts; angular = 4x on disks, 2x on
    # Carleson sets, unless noted)
    region_resolution: int = 48
    # DiscMeasure.integrate_at: nodes in r (Gauss-Legendre), or in |z|^2
    # (Gauss-Jacobi) for a radial density, and in angle
    density_radial: int = 128
    density_angular: int = 256
    # lattice / ladder defaults
    lattice_r: float = 0.3
    lattice_r_max: float = 0.95
    ladder_rings: int = 12
    ladder_samples: int = 16


DEFAULTS = Defaults()
