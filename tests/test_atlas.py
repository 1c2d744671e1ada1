"""Verdict atlas: the lab's verdicts against analytic truth, one case per cell.

Family B_p (Bekolle-Bonami membership).  The truth is stated here, on the
test side, and never computed by the library:

  * standard(alpha) = (1 - |z|^2)^alpha is in B_p iff alpha < p - 1;
  * |1 - z|^gamma is in B_p iff -2 < gamma < 2 (p - 1).

bekolle_constant on boundary_ladder(6, 8) must read "finite" for a member and
"divergent" for a non-member.  A cell the lab misreads today is a strict
xfail whose reason names the cause and the ROADMAP item that owns it: a fix
turns it into an XPASS failure, and that change deletes the mark.  A new
misread fails as a regression.
"""

import pytest

from bergman_lab import bekolle_constant, boundary_ladder, power_one_minus_z, standard

# the Carleson rules stop at preimage radius 0.995 and miss the boundary (or
# z = 1) singularity of u^(-1/(p-1)), so a non-member reads finite
CUT_OFF = "ROADMAP item 3: Carleson rules cut at 0.995 miss the divergence"
# ring maxima that approach their limit with halving increments read as growth
CLASSIFIER = "ROADMAP item 9: classify_ring_trend reads a convergent approach as divergent"

KNOWN_MISREADS = {
    ("standard", 0.5, 1.5): CUT_OFF,
    ("standard", 1.0, 2.0): CUT_OFF,
    ("standard", 1.9, 3.0): CLASSIFIER,
    ("standard", 2.5, 4.0): CLASSIFIER,
    ("power_one_minus_z", 2.1, 2.0): CUT_OFF,
    ("power_one_minus_z", 4.1, 3.0): CUT_OFF,
}


def _in_bp(kind, exponent, p):
    if kind == "standard":
        return exponent < p - 1
    return -2 < exponent < 2 * (p - 1)


def _bp_cells():
    cells = [
        ("standard", alpha, p)
        for p in (1.5, 2.0, 3.0, 4.0)
        for alpha in (-0.5, 0.0, 0.5, 1.0, 1.5, 1.9, 2.5, 3.0)
    ]
    cells += [("power_one_minus_z", gamma, 2.0) for gamma in (-1.5, -0.5, 0.5, 1.5, 2.1)]
    cells += [("power_one_minus_z", gamma, 3.0) for gamma in (-1.5, 0.5, 2.5, 3.5, 4.1)]
    return [
        pytest.param(
            *cell,
            id=f"{cell[0]}({cell[1]:g})-p{cell[2]:g}",
            marks=[pytest.mark.xfail(strict=True, reason=KNOWN_MISREADS[cell])]
            if cell in KNOWN_MISREADS
            else [],
        )
        for cell in cells
    ]


@pytest.fixture(scope="module")
def ladder():
    return boundary_ladder(6, 8)


@pytest.mark.parametrize("kind, exponent, p", _bp_cells())
def test_bp_membership(kind, exponent, p, ladder):
    u = standard(exponent) if kind == "standard" else power_one_minus_z(exponent)
    want = "finite" if _in_bp(kind, exponent, p) else "divergent"
    assert bekolle_constant(u, p, ladder=ladder).verdict == want
