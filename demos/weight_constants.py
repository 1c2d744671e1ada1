"""Bekolle-Bonami and local C_p joint averages for standard weights.

The joint average over a region S is

    (1/|S| int_S u dA) * (1/|S| int_S u^{-1/(p-1)} dA)^{p-1},

which is >= 1 by Jensen and equals 1 exactly for constant weights.  The
global constant takes Carleson sets anchored on a dyadic boundary ladder;
the C_p variant averages over pseudohyperbolic disks instead, so it stays
mild even when the global constant is large.
"""

from bergman_lab import bekolle_constant, boundary_ladder, constant, cp_constant, standard

ladder = boundary_ladder(6, 8)

print(f"{'weight':24s} {'[u]_B2':>10s} {'[u]_C2(r=0.3)':>14s} {'trend':>12s}")
for label, u in [
    ("constant", constant()),
    ("standard alpha=0.5", standard(0.5)),
    ("standard alpha=1", standard(1.0)),
    ("standard alpha=2", standard(2.0)),
]:
    bp = bekolle_constant(u, 2.0, ladder=ladder)
    cp = cp_constant(u, 2.0, 0.3, ladder=ladder)
    print(f"{label:24s} {bp.index_value:10.4f} {cp.index_value:14.4f} {bp.verdict:>12s}")

print()
print("ring trend of the B_2 joint average for alpha = 1:")
for rho, v in bekolle_constant(standard(1.0), 2.0, ladder=ladder).ring_trend:
    print(f"  rho = {rho:.4f}   joint average = {v:.4f}")
