"""Empirical contraction certification: sweep pairs, estimate the modulus."""

import math

from mvfix import (
    CompactSet,
    ConstantIntegrand,
    FFunction,
    PairCheck,
    certify,
    check_pair_f_integral,
    check_pair_nadler,
    check_pair_ojha,
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

# single pairs can be checked against specific conditions too
print()
print("tau = 0.69 on (0, 1):", check_pair_f_integral(halving, F, one, 0.69, 0.0, 1.0))
print("tau = 0.70 on (0, 1):", check_pair_f_integral(halving, F, one, 0.70, 0.0, 1.0))
print("linear ratio 1/4:    ", check_pair_ojha(T, one, 0.25, 0.0, 1.0, mode="excess"))
print("lipschitz 1/2:       ", check_pair_nadler(halving, 0.5, 0.0, 1.0))
assert check_pair_nadler(halving, 0.4, 0.0, 1.0) is PairCheck.VIOLATED
