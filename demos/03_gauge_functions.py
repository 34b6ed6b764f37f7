"""Gauge functions F and grid probes of the contraction axioms."""

import math

from mvfix import CompactSet, FFunction, check_f1, check_f2_f3, check_f4, f_eval

for kind in ("log", "log_plus_linear", "neg_inv_sqrt"):
    F = FFunction(kind)
    vals = [f_eval(F, a) for a in (0.01, 0.5, 1.0, 10.0)]
    print(f"{kind:16s}", "  ".join(f"{v:9.4f}" for v in vals))

print()

# (F1): strictly increasing on a log-spaced grid
print("F1 log:", check_f1(FFunction("log")).passed)
# a non-monotone callable fails and names the first bad pair
v = check_f1(math.sin, grid=[1.0, 2.0, 3.0, 4.0])
print("F1 sin:", v.passed, "first violation at", v.first_violation)

# (F2) divergence at 0+ and (F3) vanishing weight alpha^k F(alpha); the
# exponent k belongs to F, FFunction(kind, k), and defaults to 1/2
for kind, k in [("log", 0.5), ("neg_inv_sqrt", 0.5), ("neg_inv_sqrt", 0.9)]:
    verdict = check_f2_f3(FFunction(kind, k))
    print(f"F2/F3 {kind} at k={k}: f2={verdict.f2_passed} f3={verdict.f3_passed}")
    print("   ", verdict.f3_detail)

# the -1/sqrt family only passes (F3) once k clears 1/2 with room to spare:
# alpha^k F(alpha) = -alpha^(k - 1/2), constant at k = 1/2

# (F4): F commutes with the minimum over a compact positive set
A = CompactSet([(1.0, 2.0), (5.0, 5.0)])
v4 = check_f4(FFunction("log"), A)
print(f"F4 on {A}: passed={v4.passed}  F(min)={v4.lhs:.6f}  grid min={v4.rhs:.6f}")
