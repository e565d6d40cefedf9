"""Command-line front end.

Subcommands: ``invariants`` (inspect the feature table), ``conjecture``
(run the full generation pipeline), ``verify`` (check an exported conjecture
list against a corpus). Identical configuration and corpus produce byte
identical output. Exit codes: 0 success, 1 a verify run found a
counterexample, 2 configuration or parse error, including an export record
that ``verify`` could not check (the other records are still checked).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import engine
from .errors import ConfigError, SharpboundsError
from .features import build_table, load_or_build_table
from .graph6 import Graph6Corpus, read_graph6_file
from .invariants import resolve_column, standard_invariants
from .predicates import standard_predicates


def _read_corpus(path: str, read=Graph6Corpus):
    # ``invariants`` and ``conjecture`` read the corpus undecoded, so a table
    # cache hit decodes nothing; ``verify`` passes read_graph6_file
    graphs = read(path)
    if not graphs:
        raise ConfigError(f"empty corpus: {path}")
    return graphs


def _split_names(raw: str) -> list[str]:
    return [resolve_column(part.strip()) for part in raw.split(",") if part.strip()]


_FILTER_CHOICES = {
    "both": ("generality", "dalmatian"),
    "none": (),
    "generality": ("generality",),
    "dalmatian": ("dalmatian",),
}

# every ``conjecture`` option but --config, as name -> (type, default,
# choices, help): its flag is the name with "_" written "-", and the keys a
# ``--config`` file may set are exactly these names
_CONJECTURE_OPTIONS = {
    "corpus": (str, None, None, None),
    "targets": (str, None, None, "comma-separated target invariants"),
    "directions": (str, "upper,lower", None, "comma-separated upper and lower"),
    "max_hypothesis_size": (int, 2, None, None),
    "min_support": (int, 5, None, None),
    "filters": (str, "generality", sorted(_FILTER_CHOICES), "filter selection"),
    "top_k": (int, 10, None, "conjectures listed per target and direction"),
    "format": (str, "text", ["text", "structured"], None),
    "export": (str, None, None, "write the structured record file here"),
    "cache": (str, None, None, "feature table cache directory"),
}


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text") from None
    options = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONJECTURE_OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in options:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is given more "
                              "than once")
        options[key] = value.strip()
    return options


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _cmd_invariants(args) -> int:
    corpus = _read_corpus(args.corpus)
    invariants = standard_invariants()
    predicates = standard_predicates()
    columns = list(invariants)
    if args.columns is not None:
        columns = _split_names(args.columns)
        if not columns:
            raise ConfigError("at least one column is required (--columns)")
        for name in columns:
            if name not in invariants and name not in predicates:
                raise ConfigError(f"unknown column {name!r}")
            if columns.count(name) > 1:
                raise ConfigError(f"column {name!r} is given more than once")
        predicates = {name: predicates[name] for name in columns
                      if name in predicates}
        invariants = {name: invariants[name] for name in columns
                      if name in invariants}

    table = load_or_build_table(corpus, args.cache, invariants, predicates)
    print(" ".join(["label"] + columns))
    for i, label in enumerate(table.labels):
        cells = [label]
        for name in columns:
            if name in table.numeric:
                v = table.numeric[name][i]
                cells.append("-" if v is None else str(v))
            else:
                cells.append("true" if table.boolean[name][i] else "false")
        print(" ".join(cells))
    return 0


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------

def _conjecture_options(args) -> dict:
    """Each ``conjecture`` option: its flag, else its ``--config`` value, else
    its default. A config value passes the same type and choice check as the
    flag."""
    config = _parse_config_file(args.config) if args.config else {}
    options = {}
    for key, (kind, default, choices, _) in _CONJECTURE_OPTIONS.items():
        value = getattr(args, key)
        if value is None and key in config:
            try:
                value = kind(config[key])
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got "
                                  f"{config[key]!r}") from None
            if choices and value not in choices:
                raise ConfigError(f"{key} must be one of {choices}")
        options[key] = default if value is None else value
    return options


def _cmd_conjecture(args) -> int:
    options = _conjecture_options(args)
    if not options["corpus"]:
        raise ConfigError("a corpus path is required (flag --corpus or config key)")
    if not options["targets"]:
        raise ConfigError("at least one target is required (--targets)")
    engine_config = engine.EngineConfig(
        targets=tuple(_split_names(options["targets"])),
        directions=tuple(_split_names(options["directions"])),
        max_hypothesis_size=options["max_hypothesis_size"],
        min_support=options["min_support"],
        filters=_FILTER_CHOICES[options["filters"]],
        top_k=options["top_k"],
    )

    invariants = standard_invariants()
    predicates = standard_predicates()
    for target in engine_config.targets:
        if target not in invariants:
            raise ConfigError(f"unknown target invariant {target!r}")

    corpus = _read_corpus(options["corpus"])
    table = load_or_build_table(corpus, options["cache"], invariants, predicates)
    conjectures = engine.run_pipeline(table, engine_config)

    if options["export"]:  # before any output, which a failed write stops
        text = engine.write_export(conjectures, options["export"])
    if options["format"] == "text":
        print(f"# {len(conjectures)} conjectures from {table.n_rows} graphs")
        for rank, c in enumerate(conjectures, 1):
            print(f"{rank}. (touch {c.touch_number}, support {c.support_size}) "
                  f"{c.statement}")
    if options["format"] == "structured":  # the export text, built once
        print(text if options["export"] else engine.export_text(conjectures), end="")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# what an export record that verify cannot check raises
_RECORD_ERRORS = (SharpboundsError, KeyError, TypeError, ValueError)


def _cmd_verify(args) -> int:
    corpus = _read_corpus(args.corpus, read_graph6_file)
    invariants = standard_invariants()
    predicates = standard_predicates()

    # (line number, conjecture) per record, or the error that stops its check
    records = []
    for lineno, record in engine.read_numbered_export(args.export):
        try:
            conj = engine.conjecture_from_record(record)
            engine.check_names(conj, invariants, predicates)
        except _RECORD_ERRORS as exc:
            conj = exc
        records.append((lineno, conj))
    # each predicate the checkable records name, once per graph
    named = {name for _, conj in records if isinstance(conj, engine.Conjecture)
             for name in conj.hypothesis.key}
    table = build_table(corpus, {}, {name: fn for name, fn in predicates.items()
                                     if name in named})

    failed = errored = False
    for lineno, conj in records:
        # the verdict line is built inside the try too: printing a value of
        # more digits than int converts to a string raises ValueError
        try:
            if not isinstance(conj, engine.Conjecture):
                raise conj  # what stopped the record's parse or name check
            counterexample, touches = engine.check_conjecture(
                conj, corpus, invariants, table)
            if counterexample is None:
                line = f"HOLDS touch={touches} {conj.statement}"
            else:
                label, lhs, rhs = counterexample
                line = f"COUNTEREXAMPLE {label} lhs={lhs} rhs={rhs} {conj.statement}"
                failed = True
        except _RECORD_ERRORS as exc:
            line = f"ERROR {args.export}:{lineno}: {exc}"
            errored = True
        print(line)
    if errored:
        return 2
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sharpbounds",
        description="Discover sharp linear inequalities between graph invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="print invariant values per graph")
    p_inv.add_argument("corpus", help="graph6 corpus file, one graph per line")
    p_inv.add_argument("--columns", "-c", default=None,
                       help="comma-separated invariant or predicate names")
    p_inv.add_argument("--cache", default=None, help="feature table cache directory")
    p_inv.set_defaults(func=_cmd_invariants)

    p_conj = sub.add_parser("conjecture", help="generate ranked conjectures")
    p_conj.add_argument("--config", default=None,
                        help="key = value config file; flags override it")
    for key, (kind, _, choices, text) in _CONJECTURE_OPTIONS.items():
        p_conj.add_argument("--" + key.replace("_", "-"), type=kind,
                            choices=choices, help=text)
    p_conj.set_defaults(func=_cmd_conjecture)

    p_ver = sub.add_parser("verify", help="check an exported conjecture list")
    p_ver.add_argument("export", help="structured conjecture records (one per line)")
    p_ver.add_argument("corpus", help="graph6 corpus to verify against")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SharpboundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
