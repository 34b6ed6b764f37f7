"""The four ways to define a multivalued map on a compact domain."""

from mvfix import (
    CompactSet,
    apply_map,
    finite_set_map,
    interval_map,
    is_fixed_point,
    singleton_map,
    table_map,
)

unit = CompactSet.interval(0.0, 1.0)

# endpoint expressions define an interval-valued map; both endpoints are
# checked on a dense grid at construction time
T1 = interval_map(unit, "x/4", "(x+1)/2")
print(T1.describe())
for x in (0.0, 0.5, 1.0):
    print(f"  T({x}) = {apply_map(T1, x)}")

# every x of [0,1] satisfies x in T(x) for this map
print("  all grid points fixed:", all(is_fixed_point(T1, i / 100) for i in range(101)))

# single-valued maps are the singleton special case
T2 = singleton_map(unit, "x/2")
print(T2.describe(), " T(0.8) =", apply_map(T2, 0.8))

# a finite set of expression branches
T3 = finite_set_map(unit, ["x/4", "x/2", "1 - x/8"])
print(T3.describe(), " T(0.8) =", apply_map(T3, 0.8))

# tabulated values: exact-hit lookups only, no interpolation
T4 = table_map(
    CompactSet([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]),
    [(0.0, CompactSet.interval(0.0, 0.5)),
     (1.0, CompactSet.interval(0.25, 0.25)),
     (2.0, CompactSet([(0.1, 0.2), (1.9, 2.0)]))],
)
print(T4.describe(), " T(2) =", apply_map(T4, 2.0))

# construction rejects maps whose endpoints cross on the domain
try:
    interval_map(unit, "x", "x/2")
except Exception as err:
    print("rejected crossing endpoints:", err)
