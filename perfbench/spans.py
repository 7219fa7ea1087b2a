"""Per-layer spans, recorded from outside the package.

A traced run wraps each layer's public functions at the place the caller
looks them up: the engine binds its helpers with ``from ... import``, so
``covreduct.engine.minimal_dnf`` is patched rather than
``covreduct.boolformula.minimal_dnf``.  The benchmark itself calls the engine
and io entry points through their modules.  ``traced()`` restores every name
when it exits, and ``leaked()`` lists any wrapper still in place.

A span records calls, total time and self time (its time minus that of the
spans nested inside it).  The incremental path an add or delete took is
inferred from the spans nested inside it.
"""

import time
from collections import Counter
from contextlib import contextmanager

from covreduct import engine, io
from covreduct.model import CoveringDecisionSystem


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.counts = Counter()
        self._stack = []

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0, set()])

    def _exit(self):
        name, start, child, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.calls[name] += 1
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += elapsed
            parent[3].add(name)
            parent[3] |= nested
        return elapsed, nested


def _span(tracer, name, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before`` may rewrite the arguments."""

    def wrapper(*args, **kwargs):
        if before is not None:
            args = before(tracer, args)
        tracer._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed, nested = tracer._exit()
        if after is not None:
            after(tracer, args, result, elapsed, nested)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _fingerprint_before(tracer, args):
    tracer.counts["model.fingerprint.hits"] += "_fingerprint" in args[0].__dict__
    return args


def _clauses_after(tracer, args, result, elapsed, nested):
    tracer.counts["related.clauses"] += len(result.terms)


def _dnf_before(tracer, args):
    tracer.counts["boolformula.minimal_dnf.clauses_in"] += len(args[0].terms)
    return args


def _dnf_after(tracer, args, result, elapsed, nested):
    width = "u64" if len(args[0].names) <= 64 else "wide"
    tracer.counts[f"boolformula.minimal_dnf.{width}.s"] += elapsed
    tracer.counts["boolformula.minimal_dnf.terms_out"] += len(result.terms)


def _filter_before(tracer, args):
    candidates, existing = tuple(args[0]), tuple(args[1])
    tracer.counts["boolformula.filter_non_extensions.pairs"] += len(candidates) * len(existing)
    tracer.counts["boolformula.filter_non_extensions.in"] += len(candidates)
    return (candidates, existing) + tuple(args[2:])


def _filter_after(tracer, args, result, elapsed, nested):
    tracer.counts["boolformula.filter_non_extensions.kept"] += len(result)


def _absorb_before(tracer, args):
    terms = tuple(args[0])
    tracer.counts["boolformula.absorb.in"] += len(terms)
    return (terms,) + tuple(args[1:])


def _absorb_after(tracer, args, result, elapsed, nested):
    tracer.counts["boolformula.absorb.kept"] += len(result)


def _add_path(nested):
    if "boolformula.minimal_dnf" not in nested:
        return "add-noop"
    if "boolformula.filter_non_extensions" in nested:
        return "add-same-pos"
    return "add-pos-grew"


def _delete_path(nested):
    if "boolformula.absorb" not in nested:
        return "delete-filter"
    if "boolformula.minimal_dnf" not in nested:
        return "delete-verified"
    return "delete-fallback"


def _add_after(tracer, args, result, elapsed, nested):
    tracer.counts[f"engine.path.{_add_path(nested)}"] += 1


def _delete_after(tracer, args, result, elapsed, nested):
    tracer.counts[f"engine.path.{_delete_path(nested)}"] += 1


def _bytes_after(tracer, args, result, elapsed, nested):
    tracer.counts["io.cache_bytes"] += len(result.encode())


# (owner, attribute, span name, before hook, after hook)
TARGETS = (
    (engine, "fingerprint", "model.fingerprint", _fingerprint_before, None),
    (CoveringDecisionSystem, "with_covering", "model.with_covering", None, None),
    (CoveringDecisionSystem, "without_covering", "model.without_covering", None, None),
    (engine, "positive_region", "approximation.positive_region", None, None),
    (engine, "related_sets", "related.related_sets", None, None),
    (engine, "related_function", "related.related_function", None, _clauses_after),
    (engine, "minimal_dnf", "boolformula.minimal_dnf", _dnf_before, _dnf_after),
    (engine, "filter_non_extensions", "boolformula.filter_non_extensions",
     _filter_before, _filter_after),
    (engine, "absorb", "boolformula.absorb", _absorb_before, _absorb_after),
    (engine, "batch_reducts", "engine.batch_reducts", None, None),
    (engine, "add_covering", "engine.add_covering", None, _add_after),
    (engine, "delete_covering", "engine.delete_covering", None, _delete_after),
    (io, "serialize_cache", "io.serialize_cache", None, _bytes_after),
    (io, "load_cache", "io.load_cache", None, None),
)

ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in TARGETS}


def leaked() -> list[str]:
    """Names whose current binding is not the original function."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in ORIGINALS.items()
        if owner.__dict__[attr] is not original
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install every span for the duration of the block, then restore."""
    try:
        for owner, attr, name, before, after in TARGETS:
            original = ORIGINALS[(owner, attr)]
            setattr(owner, attr, _span(tracer, name, original, before, after))
        yield tracer
    finally:
        for (owner, attr), original in ORIGINALS.items():
            setattr(owner, attr, original)
