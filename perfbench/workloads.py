"""Workload inputs: the pinned corpus, its regeneration, and seeded relabeling.

Each workload is a list of items stored in ``corpus.json``.  An item names a
generator key; ``covreduct.synth`` rebuilds the item's base system (and the
coverings its updates add) bit for bit from that key.  Batch items are a
system plus its discrete covering, which is added and then deleted again;
chain items are a system plus a sequence of covering adds and deletes.

The ``--seed`` of a run relabels every item: objects are permuted, blocks
and decision classes are shuffled and every covering gets a new name.  The
seeded input is isomorphic to the pinned one, so its reduct family, mapped
back to the pinned names, must equal the digest recorded in the corpus on
every seed.  Covering positions are kept: they fix the order in which
``minimal_dnf`` multiplies clauses and the order the antichain filters scan
terms in, so keeping them keeps the work of an item the same on every seed.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from covreduct.model import Covering, CoveringDecisionSystem, DecisionPartition
from covreduct.synth import random_covering, random_system

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"

# Name of the discrete covering (all singletons) that batch items add: a
# key attribute, which alone preserves every positive region.
KEY_NAME = "KEY"


def load_corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text())


def base_system(spec: dict, params: dict) -> CoveringDecisionSystem:
    """The pinned system of one corpus item."""
    rng = random.Random(spec["key"])
    return random_system(
        rng,
        spec["n"],
        spec["m"],
        params["blocks_per_covering"],
        params["classes"],
        block_style="interval",
        contiguous_decision=True,
    )


def added_covering(spec: dict, params: dict, name: str) -> Covering:
    """A covering that an update adds, drawn from its own generator key."""
    if name == KEY_NAME:
        return Covering(name, tuple(1 << x for x in range(spec["n"])))
    rng = random.Random(f"{spec['key']}:{name}")
    return random_covering(rng, spec["n"], name, params["blocks_per_covering"])


def fresh(system: CoveringDecisionSystem) -> CoveringDecisionSystem:
    """An equal system object with no memoized fingerprint.

    Every engine call gets one, as ``covreduct update`` does when it loads
    the system document, so repeated passes do not reuse memos.
    """
    return CoveringDecisionSystem(system.universe_size, system.coverings, system.decision)


class Relabeling:
    """A seeded isomorphism: object permutation plus covering renaming."""

    def __init__(self, rng: random.Random, n: int, names: list[str]):
        self.n = n
        self.perm = np.array(rng.sample(range(n), n), dtype=np.intp)
        labels = rng.sample(range(len(names)), len(names))
        self.rename = {old: f"X{label}" for old, label in zip(names, labels)}
        self.base_name = {new: old for old, new in self.rename.items()}
        self.rng = rng

    def mask(self, mask: int) -> int:
        raw = np.frombuffer(mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        old_bits = np.unpackbits(raw, bitorder="little")[: self.n]
        new_bits = np.zeros(self.n, dtype=np.uint8)
        new_bits[self.perm] = old_bits
        return int.from_bytes(np.packbits(new_bits, bitorder="little").tobytes(), "little")

    def covering(self, covering: Covering) -> Covering:
        blocks = [self.mask(b) for b in covering.blocks]
        self.rng.shuffle(blocks)
        return Covering(self.rename[covering.name], tuple(blocks))

    def system(self, system: CoveringDecisionSystem) -> CoveringDecisionSystem:
        coverings = tuple(self.covering(c) for c in system.coverings)
        classes = [self.mask(c) for c in system.decision.classes]
        self.rng.shuffle(classes)
        return CoveringDecisionSystem(
            system.universe_size, coverings, DecisionPartition(tuple(classes))
        )


def digest(names: tuple[str, ...], reducts, base_name: dict | None = None) -> str:
    """Order-free digest of a reduct family, in pinned covering names."""
    if base_name is not None:
        names = tuple(base_name[x] for x in names)
    lines = sorted(
        sorted(names[i] for i in range(len(names)) if r >> i & 1) for r in reducts
    )
    return hashlib.sha256(json.dumps(lines).encode()).hexdigest()[:16]


@dataclass
class Step:
    """One incremental update of a chain, in seeded (relabeled) form."""

    op: str  # "add" or "delete"
    covering: Covering | None  # the covering to add
    name: str  # the covering added or deleted
    before: CoveringDecisionSystem
    after: CoveringDecisionSystem
    expect: dict | None  # corpus record of the answer on ``after``


@dataclass
class Item:
    """One corpus item after relabeling: a base system and its updates."""

    spec: dict
    base: CoveringDecisionSystem
    base_expect: dict | None
    steps: list[Step]
    base_name: dict


def build_item(spec: dict, params: dict, seed: int) -> Item:
    """Regenerate one corpus item and relabel it for ``seed``."""
    system = base_system(spec, params)
    added = {
        name: added_covering(spec, params, name)
        for op, name in spec["steps"]
        if op == "add"
    }
    all_names = list(system.names()) + list(added)
    relabel = Relabeling(random.Random(f"{seed}:{spec['key']}"), system.universe_size, all_names)
    base = relabel.system(system)
    added = {name: relabel.covering(cov) for name, cov in added.items()}
    answers = spec.get("answers") or [None] * (len(spec["steps"]) + 1)
    steps = []
    current = base
    for (op, name), expect in zip(spec["steps"], answers[1:]):
        if op == "add":
            covering = added[name]
            after = current.with_covering(covering)
        else:
            covering = None
            after = current.without_covering(relabel.rename[name])
        steps.append(Step(op, covering, relabel.rename[name], current, after, expect))
        current = after
    return Item(spec, base, answers[0], steps, relabel.base_name)
