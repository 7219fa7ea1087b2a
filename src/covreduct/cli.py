"""Command-line interface.

Commands::

    covreduct validate <file>
    covreduct reduce   <file> [--cache <out>] [--verify]
    covreduct update   <file> (--add <covering-file> | --del <name>) --cache <cache> [-o <out>]
    covreduct bench    <config> [--out <csv>]
    covreduct coverize <csv> --spec <spec> -o <out>

Exit codes: 0 success, 1 usage or validation/parse error, 2 engine
error, 3 verification mismatch.  Every input file is read as UTF-8, less
one leading byte-order mark; one that is not UTF-8 is a parse error naming
the file.  An output that would overwrite another file of the same
command (other than ``update -o`` onto its input system, an in-place
update) exits 1 before anything is written.  Set COVREDUCT_LOG_LEVEL (a
logging level name, in any case) to adjust verbosity.
"""

import argparse
import csv
import logging
import os
import sys
from io import StringIO
from pathlib import Path

from .approximation import classify_consistency
from .bench import BenchConfig, BenchMismatch, run_bench
from .engine import add_covering, batch_reducts, delete_covering, oracle_reducts
from .errors import EngineError, ParseError, ValidationError
from .io import (
    _system_from_doc,
    coverize,
    decode_json,
    load_cache,
    load_system,
    parse_covering,
    parse_coverization_spec,
    serialize_cache,
    serialize_system,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ENGINE = 2
EXIT_MISMATCH = 3


def _no_overwrite(flag: str, path: str | None, *others: tuple[str, str | None]) -> None:
    """Refuse, before the command writes anything, an output ``path`` given
    by ``flag`` that resolves to the file of one of the ``(flag, path)``
    arguments ``others``."""
    for other, other_path in others:
        if path and other_path and Path(path).resolve() == Path(other_path).resolve():
            raise ValidationError(f"{flag} and {other} both name {path}; it would be overwritten")


def _read(path: str) -> str:
    """The text of the file ``path``, decoded as UTF-8 with its newlines
    as they are and one leading byte-order mark (U+FEFF, which spreadsheet
    tools write) dropped; a byte that is not UTF-8 is a ParseError naming
    the file."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None


def _print_reducts(reduct_set) -> None:
    for names in reduct_set.sorted_name_lists():
        print(",".join(names))


def _cmd_validate(args) -> int:
    system = load_system(_read(args.file))
    verdict = classify_consistency(system).value
    print(
        f"ok: {system.universe_size} objects, {len(system.coverings)} coverings, "
        f"{len(system.decision.classes)} decision classes, {verdict}"
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    _no_overwrite("--cache", args.cache, ("file", args.file))
    system = load_system(_read(args.file))
    reducts, cache = batch_reducts(system)
    if not cache.consistent:
        print("inconsistent (POS != U)")
    _print_reducts(reducts)
    if args.cache:
        Path(args.cache).write_text(serialize_cache(cache))
    if args.verify:
        oracle = oracle_reducts(system)
        if oracle.as_name_sets() != reducts.as_name_sets():
            print("verification: MISMATCH against brute-force enumeration", file=sys.stderr)
            return EXIT_MISMATCH
        print("verification: OK")
    return EXIT_OK


def _cmd_update(args) -> int:
    _no_overwrite("--cache", args.cache, ("file", args.file), ("--add", args.add))
    # -o onto the input system is an in-place update.
    _no_overwrite("-o", args.out, ("--cache", args.cache), ("--add", args.add))
    doc = decode_json(_read(args.file))
    system = _system_from_doc(doc)
    cache = load_cache(_read(args.cache))
    if args.add:
        covering = parse_covering(_read(args.add), system.universe_size)
        reducts, new_cache = add_covering(system, cache, covering)
    else:
        reducts, new_cache = delete_covering(system, cache, args.delete)
    _print_reducts(reducts)
    cache_text = serialize_cache(new_cache)
    if args.out:
        if args.add:
            updated = system.with_covering(covering)
        else:
            updated = system.without_covering(args.delete)
        # An add or delete moves no object, so the input's names still fit;
        # _system_from_doc has checked them.
        object_names = doc.get("object_names")
        # The system goes first: a failed write leaves the old cache, which
        # still matches the input system, so the command can be re-run.
        Path(args.out).write_text(serialize_system(updated, object_names))
    Path(args.cache).write_text(cache_text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    _no_overwrite("--out", args.out, ("config", args.config))
    config = BenchConfig.from_json(_read(args.config))
    if args.out:
        with open(args.out, "w") as fh:
            run_bench(config, fh)
    else:
        run_bench(config, sys.stdout)
    return EXIT_OK


def _cmd_coverize(args) -> int:
    _no_overwrite("-o", args.out, ("csv", args.csv), ("--spec", args.spec))
    spec = parse_coverization_spec(_read(args.spec))
    rows = list(csv.reader(StringIO(_read(args.csv), newline="")))
    if not rows:
        raise ValidationError("CSV file is empty")
    header, data = rows[0], rows[1:]
    for k, name in enumerate(header):
        if name in header[:k]:
            raise ValidationError(f"CSV header repeats column {name!r}")
    for line, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"CSV line {line}: {len(row)} cells, the header has {len(header)}"
            )
    columns = {name: [row[i] for row in data] for i, name in enumerate(header)}
    system = coverize(columns, spec)
    Path(args.out).write_text(serialize_system(system))
    print(f"wrote {args.out}: {system.universe_size} objects, {len(system.coverings)} coverings")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covreduct",
        description="Attribute reducts of covering decision systems via related families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reduce", help="compute all reducts (batch)")
    p.add_argument("file")
    p.add_argument("--cache", help="write the reduction cache here")
    p.add_argument("--verify", action="store_true", help="cross-check against brute force")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("update", help="incrementally update reducts after add/delete")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--add", help="file with the covering to add")
    group.add_argument("--del", dest="delete", help="name of the covering to delete")
    p.add_argument("--cache", required=True, help="cache file (read and rewritten)")
    p.add_argument("-o", "--out", help="also write the updated system document")
    p.set_defaults(fn=_cmd_update)

    p = sub.add_parser("bench", help="run the incremental-vs-batch benchmark grid")
    p.add_argument("config")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("coverize", help="turn a CSV table into a system document")
    p.add_argument("csv")
    p.add_argument("--spec", required=True, help="coverization spec file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_coverize)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("COVREDUCT_LOG_LEVEL", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: COVREDUCT_LOG_LEVEL={level!r} is not a logging level", file=sys.stderr)
        return EXIT_INVALID
    logging.basicConfig(level=level.upper())
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage and error lines, or the help, and
        # exits 2 on a usage error; 2 is an engine error here.
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except BenchMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
