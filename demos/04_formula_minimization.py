"""The monotone Boolean layer on its own: absorption and minimal DNF.

Reduct computation boils down to expanding a monotone CNF (the related
function) into its minimal DNF, whose terms are the minimal hitting sets
of the clauses.  This demo exercises that layer directly and checks a
random instance against its full truth table.
"""

import random

import covreduct as cr
from covreduct.bitset import to_indices
from covreduct.boolformula import MonotoneFormula

NAMES = ("C1", "C2", "C3", "C4", "C5")


def term(*names):
    return sum(1 << NAMES.index(name) for name in names)


def pretty(formula, joiner):
    parts = sorted(
        "(" + joiner.join(sorted(cr.mask_to_names(NAMES, t))) + ")" for t in formula.terms
    )
    return " ".join(parts) if parts else "(empty)"


# Absorption: supersets of another clause contribute nothing.
clauses = [
    term("C1", "C3", "C5"),
    term("C1", "C2", "C3", "C4", "C5"),
    term("C1", "C2", "C4", "C5"),
    term("C2", "C4"),
]
cnf = MonotoneFormula("cnf", frozenset(clauses), NAMES)
# absorb works on the formula's word rows, one row per term.
absorbed = MonotoneFormula.from_rows("cnf", cr.absorb(cnf.rows), NAMES)
print("clauses:         ", [sorted(cr.mask_to_names(NAMES, c)) for c in clauses])
print("after absorption:", [sorted(cr.mask_to_names(NAMES, c)) for c in sorted(absorbed.terms)])
print()

dnf = cr.minimal_dnf(cnf)
print("CNF:", pretty(cnf, " or "))
print("DNF:", pretty(dnf, " and "))
print()

# Every DNF term hits every clause; dropping any element breaks some clause.
for t in sorted(dnf.terms):
    drops = [
        sorted(cr.mask_to_names(NAMES, t & ~(1 << i)))
        for i in to_indices(t)
    ]
    print(f"  {sorted(cr.mask_to_names(NAMES, t))}: minimal hitting set; "
          f"proper subsets {drops} each miss a clause")
print()

# Truth-table check on a random CNF: the expansion preserves the function.
rng = random.Random(11)
n_vars = 10
names = tuple(f"V{i}" for i in range(n_vars))
random_clauses = frozenset(rng.randint(1, (1 << n_vars) - 1) for _ in range(6))
random_cnf = MonotoneFormula("cnf", random_clauses, names)
random_dnf = cr.minimal_dnf(random_cnf)
# Under the assignment whose true variables are the mask a, a CNF holds when
# every clause meets a, a DNF when some term lies inside a.
agree = all(
    all(c & a for c in random_cnf.terms) == any(t & ~a == 0 for t in random_dnf.terms)
    for a in range(1 << n_vars)
)
print(f"random CNF over {n_vars} vars, {len(random_clauses)} clauses -> "
      f"{len(random_dnf.terms)} DNF terms; truth tables agree: {agree}")
