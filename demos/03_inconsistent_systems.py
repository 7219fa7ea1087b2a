"""Inconsistent systems: empty related sets, regions, and update behavior.

A system is inconsistent when some object lies in no block that fits inside
a decision class; the positive region then falls short of the universe.
Incremental updates dispatch on whether the positive region moved.
"""

import covreduct as cr
from covreduct.bitset import to_indices


def obj(*labels):
    return [x - 1 for x in labels]


def show(mask):
    return "{" + ",".join(f"x{i + 1}" for i in to_indices(mask)) + "}"


system = cr.build_system(
    8,
    [
        ("C1", [obj(1, 2, 3, 4), obj(3, 6, 7), obj(4, 5), obj(6), obj(7, 8)]),
        ("C2", [obj(1), obj(2, 3, 4), obj(4, 5), obj(4, 5, 6), obj(6, 7, 8)]),
        ("C3", [obj(1), obj(1, 3, 4), obj(2, 3, 4, 8), obj(3, 4, 5, 6, 7)]),
        ("C4", [obj(1, 4, 5), obj(2, 3, 4, 5), obj(4, 5, 6, 7, 8)]),
    ],
    [obj(1, 2, 3), obj(4, 5, 6), obj(7, 8)],
)

print("consistency:", cr.classify_consistency(system).value)
report = cr.regions(system)
print("positive:", show(report.positive))
print("boundary:", show(report.boundary))
print("negative:", show(report.negative))
print()

related = cr.related_sets(system)
for x in range(8):
    names = ", ".join(sorted(related.related_names(x)))
    print(f"  r(x{x + 1}) = {{{names}}}")
print()

reducts, cache = cr.batch_reducts(system)
print("reducts:", [",".join(r) for r in reducts.sorted_name_lists()])
print()

# Adding a covering whose admissible blocks stay inside the existing
# positive region leaves the reduct set untouched.
c5 = cr.make_covering(
    "C5", [obj(1, 5, 6), obj(4, 5), obj(2, 3, 4), obj(5, 6, 7, 8)], 8
)
plus, cache_plus = cr.add_covering(system, cache, c5)
print("add C5 (positive region unchanged):",
      [",".join(r) for r in plus.sorted_name_lists()])

# Deleting C1 shrinks the positive region; the engine strips C1 from the
# old reducts and continues the expansion from them through the clauses
# that lost C1.
minus, cache_minus = cr.delete_covering(system, cache, "C1")
print("del C1 (positive region shrinks): ",
      [",".join(r) for r in minus.sorted_name_lists()])
batch_minus, _ = cr.batch_reducts(system.without_covering("C1"))
print("  matches batch recomputation:", minus.as_name_sets() == batch_minus.as_name_sets())
print("  new positive region:", show(cache_minus.positive))
