"""Independent brute-force oracles for the test suite.

Everything here enumerates: no absorption tricks, no clause-distribution,
no related-family identities.  Deliberately slow and obviously correct.
"""

from itertools import chain, combinations


def all_subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def minimal_hitting_sets(clauses: list[frozenset], variables: list) -> set[frozenset]:
    """All inclusion-minimal sets meeting every clause, by full enumeration."""
    hitting = [
        frozenset(s)
        for s in all_subsets(variables)
        if all(clause & frozenset(s) for clause in clauses)
    ]
    return {
        h for h in hitting if not any(o != h and o < h for o in hitting)
    }


def minimal_models(holds, variables: list) -> set[frozenset]:
    """All inclusion-minimal variable sets on which ``holds`` is true."""
    true_sets = [frozenset(s) for s in all_subsets(variables) if holds(frozenset(s))]
    return {t for t in true_sets if not any(o < t for o in true_sets)}


def eval_cnf(clauses: list[frozenset], true_vars: frozenset) -> bool:
    return all(clause & true_vars for clause in clauses)


def eval_dnf(terms: list[frozenset], true_vars: frozenset) -> bool:
    return any(term <= true_vars for term in terms)


def truth_table_equal(
    clauses: list[frozenset], terms: list[frozenset], variables: list
) -> bool:
    for assignment in all_subsets(variables):
        a = frozenset(assignment)
        if eval_cnf(clauses, a) != eval_dnf(terms, a):
            return False
    return True
