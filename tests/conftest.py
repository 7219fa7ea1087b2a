import hashlib
from pathlib import Path

import pytest

import covreduct as cr


def block_fingerprint(system: cr.CoveringDecisionSystem) -> str:
    """The format 5 stamp, which hashes every block of every covering.

    SHA-256 over the universe size, each covering's length-prefixed name
    and SHA-256 digest (over that name and the covering's sorted blocks) in
    name order, and SHA-256 over the sorted decision classes; every mask in
    ``(n + 7) // 8`` little-endian bytes.  ``fingerprint`` now hashes the
    admissible unions instead, so tests that pin the drawn blocks use this.
    """
    width = (system.universe_size + 7) // 8

    def name(s: str) -> bytes:
        raw = s.encode()
        return len(raw).to_bytes(4, "little") + raw

    def masks(ms) -> bytes:
        return b"".join(sorted(m.to_bytes(width, "little") for m in ms))

    h = hashlib.sha256(system.universe_size.to_bytes(8, "little"))
    for cov in sorted(system.coverings, key=lambda c: c.name):
        h.update(name(cov.name))
        h.update(hashlib.sha256(name(cov.name) + masks(cov.blocks)).digest())
    h.update(hashlib.sha256(masks(system.decision.classes)).digest())
    return h.hexdigest()[:16]


def obj(*labels: int) -> list[int]:
    """1-based object labels -> 0-based indices (fixtures read like the data)."""
    return [x - 1 for x in labels]


DECISION_8 = [obj(1, 2, 3), obj(4, 5, 6), obj(7, 8)]

# Eight objects, five coverings, consistent: every object has a non-empty
# related set and the reduct set has six two-covering members.
CONSISTENT8_COVERINGS = [
    ("C1", [obj(1, 2), obj(2, 3, 4), obj(3), obj(4), obj(5, 6), obj(6, 7, 8)]),
    ("C2", [obj(1, 3, 4), obj(2, 3), obj(4, 5), obj(5, 6), obj(6), obj(7, 8)]),
    ("C3", [obj(1), obj(1, 2, 3), obj(2, 3), obj(3, 4, 5, 6), obj(5, 7, 8)]),
    ("C4", [obj(1, 2, 4), obj(2, 3), obj(4, 5, 6), obj(6), obj(7, 8)]),
    ("C5", [obj(1, 2, 3), obj(4), obj(5, 6), obj(5, 6, 8), obj(4, 7, 8)]),
]

EXTRA_COVERING_6 = ("C6", [obj(1, 4, 5), obj(2), obj(3, 4, 6), obj(3, 5, 7), obj(7, 8)])

# Same universe and decision, four coverings, inconsistent: objects 2 and 3
# sit in no admissible block.
INCONSISTENT8_COVERINGS = [
    ("C1", [obj(1, 2, 3, 4), obj(3, 6, 7), obj(4, 5), obj(6), obj(7, 8)]),
    ("C2", [obj(1), obj(2, 3, 4), obj(4, 5), obj(4, 5, 6), obj(6, 7, 8)]),
    ("C3", [obj(1), obj(1, 3, 4), obj(2, 3, 4, 8), obj(3, 4, 5, 6, 7)]),
    ("C4", [obj(1, 4, 5), obj(2, 3, 4, 5), obj(4, 5, 6, 7, 8)]),
]

EXTRA_COVERING_5 = ("C5", [obj(1, 5, 6), obj(4, 5), obj(2, 3, 4), obj(5, 6, 7, 8)])


def partition_blocks(labels: list[int]) -> list[list[int]]:
    """Objects grouped by label, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for x, label in enumerate(labels):
        groups.setdefault(label, []).append(x)
    return list(groups.values())


def nameset(*groups: tuple[str, ...]) -> frozenset[frozenset[str]]:
    return frozenset(frozenset(g) for g in groups)


CONSISTENT8_REDUCTS = nameset(
    ("C1", "C2"), ("C1", "C4"), ("C2", "C3"), ("C3", "C4"), ("C2", "C5"), ("C4", "C5")
)
CONSISTENT8_PLUS_REDUCTS = CONSISTENT8_REDUCTS | nameset(("C1", "C6"), ("C5", "C6"))
CONSISTENT8_MINUS_REDUCTS = nameset(
    ("C1", "C2"), ("C1", "C4"), ("C2", "C3"), ("C3", "C4")
)
INCONSISTENT8_REDUCTS = nameset(("C1", "C2"), ("C1", "C3"))


@pytest.fixture
def consistent8() -> cr.CoveringDecisionSystem:
    return cr.build_system(8, CONSISTENT8_COVERINGS, DECISION_8)


@pytest.fixture
def inconsistent8() -> cr.CoveringDecisionSystem:
    return cr.build_system(8, INCONSISTENT8_COVERINGS, DECISION_8)


@pytest.fixture
def covering6() -> cr.Covering:
    name, blocks = EXTRA_COVERING_6
    return cr.make_covering(name, blocks, 8)


@pytest.fixture
def covering5() -> cr.Covering:
    name, blocks = EXTRA_COVERING_5
    return cr.make_covering(name, blocks, 8)


def names_of(reducts: cr.ReductSet) -> frozenset[frozenset[str]]:
    return reducts.as_name_sets()


def readme_block(after: str, lang: str) -> str:
    """The first ``lang`` code block of README.md after the text ``after``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split(after, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]
