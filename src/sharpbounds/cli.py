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
from .features import load_or_build_table
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


# the keys a ``--config`` file may set, one per ``conjecture`` option; any
# other key, or one given twice, is a ConfigError at path:line
CONFIG_KEYS = ("corpus", "targets", "directions", "max_hypothesis_size",
               "min_support", "filters", "top_k", "format", "export", "cache")


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
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in options:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is given more "
                              "than once")
        options[key] = value.strip()
    return options


_FILTER_CHOICES = {
    "both": ("generality", "dalmatian"),
    "none": (),
    "generality": ("generality",),
    "dalmatian": ("dalmatian",),
}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _cmd_invariants(args) -> int:
    corpus = _read_corpus(args.corpus)
    invariants = standard_invariants()
    predicates = standard_predicates()
    columns = list(invariants)
    if args.columns:
        columns = _split_names(args.columns)
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

def _merged_option(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _int_option(args, config: dict, key: str, default: int) -> int:
    value = _merged_option(args, config, key, default)
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _cmd_conjecture(args) -> int:
    config = _parse_config_file(args.config) if args.config else {}

    corpus_path = _merged_option(args, config, "corpus", None)
    if not corpus_path:
        raise ConfigError("a corpus path is required (flag --corpus or config key)")
    raw_targets = _merged_option(args, config, "targets", None)
    if not raw_targets:
        raise ConfigError("at least one target is required (--targets)")

    directions = _split_names(str(_merged_option(args, config, "directions", "upper,lower")))
    filters_name = str(_merged_option(args, config, "filters", "generality"))
    if filters_name not in _FILTER_CHOICES:
        raise ConfigError(f"filters must be one of {sorted(_FILTER_CHOICES)}")
    engine_config = engine.EngineConfig(
        targets=tuple(_split_names(str(raw_targets))),
        directions=tuple(directions),
        max_hypothesis_size=_int_option(args, config, "max_hypothesis_size", 2),
        min_support=_int_option(args, config, "min_support", 5),
        filters=_FILTER_CHOICES[filters_name],
        top_k=_int_option(args, config, "top_k", 10),
    )
    output_format = str(_merged_option(args, config, "format", "text"))
    if output_format not in ("text", "structured"):
        raise ConfigError("format must be 'text' or 'structured'")
    export_path = _merged_option(args, config, "export", None)
    cache_dir = _merged_option(args, config, "cache", None)

    invariants = standard_invariants()
    predicates = standard_predicates()
    for target in engine_config.targets:
        if target not in invariants:
            raise ConfigError(f"unknown target invariant {target!r}")

    corpus = _read_corpus(corpus_path)
    table = load_or_build_table(corpus, cache_dir, invariants, predicates)
    conjectures = engine.run_pipeline(table, engine_config)

    if output_format == "text":
        print(f"# {len(conjectures)} conjectures from {table.n_rows} graphs")
        for rank, c in enumerate(conjectures, 1):
            print(f"{rank}. (touch {c.touch_number}, support {c.support_size}) "
                  f"{c.statement}")
    else:
        import json
        for c in conjectures:
            print(json.dumps(engine.conjecture_to_record(c), ensure_ascii=False))

    if export_path:
        engine.write_export(conjectures, export_path)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    corpus = _read_corpus(args.corpus, read_graph6_file)
    invariants = standard_invariants()
    predicates = standard_predicates()

    failed = errored = False
    for lineno, record in engine.read_numbered_export(args.export):
        try:
            conj = engine.conjecture_from_record(record)
            counterexample, touches = engine.check_conjecture(
                conj, corpus, invariants, predicates)
        except (SharpboundsError, KeyError, TypeError, ValueError) as exc:
            print(f"ERROR {args.export}:{lineno}: {exc}")
            errored = True
            continue
        if counterexample is None:
            print(f"HOLDS touch={touches} {conj.statement}")
        else:
            label, lhs, rhs = counterexample
            print(f"COUNTEREXAMPLE {label} lhs={lhs} rhs={rhs} {conj.statement}")
            failed = True
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
    p_conj.add_argument("--corpus", default=None)
    p_conj.add_argument("--targets", default=None,
                        help="comma-separated target invariants")
    p_conj.add_argument("--directions", default=None, help="upper, lower or both")
    p_conj.add_argument("--max-hypothesis-size", dest="max_hypothesis_size",
                        type=int, default=None)
    p_conj.add_argument("--min-support", dest="min_support", type=int, default=None)
    p_conj.add_argument("--filters", default=None,
                        choices=sorted(_FILTER_CHOICES), help="filter selection")
    p_conj.add_argument("--top-k", dest="top_k", type=int, default=None,
                        help="conjectures listed per target and direction")
    p_conj.add_argument("--format", default=None, choices=["text", "structured"])
    p_conj.add_argument("--export", default=None,
                        help="write the structured record file here")
    p_conj.add_argument("--cache", default=None, help="feature table cache directory")
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
