"""Empirical contraction certification: sweep pairs, estimate the modulus."""

import math

from mvfix import (
    CompactSet,
    ConstantIntegrand,
    FFunction,
    certify,
    evaluate_pair,
    evaluate_pairs,
    interval_map,
    singleton_map,
)

unit = CompactSet.interval(0.0, 1.0)
F = FFunction("log")
one = ConstantIntegrand(1.0)


def summarize(name, report):
    tau = "undefined" if report.tau_star is None else f"{report.tau_star:.12f}"
    print(f"{name:24s} tau* = {tau:16s} violations = {report.violation_count:5d}"
          f"  vacuous = {report.vacuous_pairs}")


# the halving map contracts with modulus exactly ln 2 under F = ln
halving = singleton_map(unit, "x/2")
summarize("T(x) = {x/2}", certify(halving, F, one))
print("   ln 2 =", math.log(2.0))

# the identity map never contracts: every margin is exactly zero
summarize("identity", certify(singleton_map(unit, "x"), F, one))

# a constant map sends every pair to the same set, so nothing to compare
summarize("constant", certify(interval_map(unit, "0", "0"), F, one))

# interval-valued example: the one-sided excess halves the distance again,
# so the excess-mode modulus is ln 4 while the two-sided one is ln 2
T = interval_map(unit, "x/4", "(x+1)/2")
summarize("interval, hausdorff", certify(T, F, one))
summarize("interval, excess", certify(T, F, one, mode="excess"))
print("   ln 4 =", math.log(4.0))

# a list of pairs is evaluated in the given order: in excess mode the pair
# (0, 1) has the margin ln 4 and the reversed pair (1, 0) the margin ln 2
_, columns, _ = evaluate_pairs(T, F, one, [0.0, 1.0], [1.0, 0.0], mode="excess")
print("excess margins of (0, 1) and (1, 0):", *columns[-1].tolist())
print("   ln 4 =", math.log(4.0), "  ln 2 =", math.log(2.0))

# a single pair's fields give its verdict under each special condition
print()
pair = evaluate_pair(halving, F, one, 0.0, 1.0)
excess_pair = evaluate_pair(T, F, one, 0.0, 1.0, mode="excess")
verdict = {True: "holds", False: "violated"}
print("tau = 0.69 on (0, 1):", verdict[0.69 <= pair.margin + 1e-12])
print("tau = 0.70 on (0, 1):", verdict[0.70 <= pair.margin + 1e-12])
print("linear ratio 1/4:    ", verdict[excess_pair.phi_h <= 0.25 * excess_pair.phi_m + 1e-12])
print("lipschitz 1/2:       ", verdict[pair.h <= 0.5 * abs(pair.x - pair.y) + 1e-12])
assert pair.h > 0.4 * abs(pair.x - pair.y) + 1e-12  # lipschitz 0.4 is violated
