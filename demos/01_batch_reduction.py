"""Walk through batch attribute reduction on a small consistent system.

Eight objects, five coverings, three decision classes.  We inspect the
admissible blocks and related sets, assemble the related function, and read
the reducts off its minimal DNF.
"""

import covreduct as cr
from covreduct.bitset import to_indices


def obj(*labels):
    return [x - 1 for x in labels]


def show(block):
    return "{" + ",".join(f"x{i + 1}" for i in to_indices(block)) + "}"


system = cr.build_system(
    8,
    [
        ("C1", [obj(1, 2), obj(2, 3, 4), obj(3), obj(4), obj(5, 6), obj(6, 7, 8)]),
        ("C2", [obj(1, 3, 4), obj(2, 3), obj(4, 5), obj(5, 6), obj(6), obj(7, 8)]),
        ("C3", [obj(1), obj(1, 2, 3), obj(2, 3), obj(3, 4, 5, 6), obj(5, 7, 8)]),
        ("C4", [obj(1, 2, 4), obj(2, 3), obj(4, 5, 6), obj(6), obj(7, 8)]),
        ("C5", [obj(1, 2, 3), obj(4), obj(5, 6), obj(5, 6, 8), obj(4, 7, 8)]),
    ],
    [obj(1, 2, 3), obj(4, 5, 6), obj(7, 8)],
)

print("decision classes:", ", ".join(show(c) for c in system.decision.classes))
print("consistency:", cr.classify_consistency(system).value)
print()

print("Admissible blocks (blocks that fit inside one decision class):")
admissible = cr.admissible_blocks(system)
for block, contributors in admissible:
    print(f"  {show(block):<14} from {', '.join(contributors)}")
print()

print("Related sets r(x) = coverings owning an admissible block through x:")
related = cr.related_sets(system)
for x in range(system.universe_size):
    names = ", ".join(sorted(related.related_names(x))) or "(empty)"
    print(f"  r(x{x + 1}) = {{{names}}}")
print()

cnf = cr.related_function(related)
print("Related function (CNF over covering names), distinct clauses:")
for clause in sorted(sorted(cr.mask_to_names(cnf.names, t)) for t in cnf.terms):
    print("  " + " or ".join(clause))
print()

reducts, cache = cr.batch_reducts(system)
print("Reducts (minimal DNF terms):")
for names in reducts.sorted_name_lists():
    print("  {" + ", ".join(names) + "}")
print()
print("Cross-check against brute-force enumeration:",
      "ok" if cr.oracle_reducts(system).as_name_sets() == reducts.as_name_sets() else "MISMATCH")
