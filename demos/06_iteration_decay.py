"""Nearest-point iteration and validation of the predicted decay law."""

import math

from mvfix import (
    CompactSet,
    FFunction,
    interval_map,
    iterate,
    singleton_map,
    validate_trace,
)

unit = CompactSet.interval(0.0, 1.0)
# F = ln with its (F3) exponent k = 1/2, which the rate bound below reads
F = FFunction("log", k=0.5)

# iterate x -> nearest point of T(x); for T(x) = [x/3, x/2] that nearest
# point is x/2, so the orbit halves until it hits the tolerance
T = interval_map(unit, "x/3", "x/2")
trace = iterate(T, 1.0, tol=1e-12)
print("outcome:", trace.outcome)
print("steps recorded:", len(trace.x))
for n, (x, nxt, gamma) in enumerate(zip(trace.x[:5], trace.next_point, trace.gamma)):
    print(f"  n={n:2d}  x={x:.6f}  next={nxt:.6f}  gamma={gamma:.6f}")
print("  ...")

# validate against tau = ln 2: the chain F(gamma_n) <= F(gamma_0) - n tau
# telescopes with equality, so the margins sit at zero
verdict = validate_trace(trace, F, math.log(2.0))
print("\ndecay chain ok:", verdict.decay_chain_ok)
print("worst margin:", float(abs(verdict.per_step_margins).max()))
print("tail start n1:", verdict.n1)
print("rate bound gamma_n <= n^(-1/k):", verdict.rate_bound_ok)
print("cauchy tail bound:", verdict.cauchy_tail_bound)

# claiming a bigger modulus than the map delivers fails at once
bad = validate_trace(trace, F, 0.8)
print("\ntau = 0.8 chain ok:", bad.decay_chain_ok, " first failure at n =", bad.first_failure)

# a fixed point away from the origin: T(x) = {x/2 + 1} pulls toward 2
T2 = singleton_map(CompactSet.interval(0.0, 3.0), "x/2 + 1")
trace2 = iterate(T2, 0.0, tol=1e-12)
print("\nshifted map outcome:", trace2.outcome)
