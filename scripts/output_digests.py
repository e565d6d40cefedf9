#!/usr/bin/env python3
"""Print one sha256 per output combination of the command line.

For each bundled corpus, each ``--filters`` choice (``both``, ``none``,
``generality``, ``dalmatian``) and each ``--format`` (``text``,
``structured``), with all registered targets and hypotheses of up to three
predicates, one digest covers:

- the exit code, stdout and stderr of ``conjecture``;
- the ``--export`` file it writes;
- the exit code, stdout and stderr of ``verify`` of that export on both
  bundled corpora;
- the table cache file.

Then, for each bundled corpus, ``--filters`` choice ``generality`` and
``none``, and ``--top-k`` of 1 and 3, with the same targets and hypotheses,
one digest covers the exit code, stdout and stderr of ``conjecture`` and
the ``--export`` file it writes: cuts that every table's groups reach, so
that the sweep skips the fits they cannot list.

Then, for each bundled corpus, one digest covers the exit code, stdout and
stderr of ``invariants`` for each of three column requests: the full
registry, ``--columns alpha`` and ``--columns connected,order``. Each of
these runs gets a fresh cache of its own, and its cache file is not hashed.
For each bundled corpus, one more digest takes a fresh cache through its
rewrite path in five ``invariants`` runs: ``--columns alpha``, then
``--columns mu,alpha,connected``, then the same after a bad ``connected``
cell is planted, then the full registry after a byte that is not UTF-8 is
appended, then the full registry again after the first row's ``order``
cell is given a leading zero (``04`` on the census's K4). It covers each
run's exit code, stdout and stderr and the table cache file after it.

Then, for each bundled corpus, one digest covers a ``conjecture --config``
run that sets every config key: its exit code, stdout and stderr, the export
and the table cache file. One digest covers each config error (an unknown
key, a repeated key, a line with no ``=``, a non-integer value, a
``filters`` or ``format`` value outside its choices): the exit code, stdout
and stderr, which name the config file by a relative path. One digest covers
the exit code, stdout and stderr of ``verify`` on both bundled corpora of an
export that holds each kind of record ``verify`` cannot check beside a
record that holds and one that fails. One line says whether the stdout of
every ``--format structured`` run above equals the ``--export`` file it
wrote. Last, one digest covers the exit code, stdout and stderr of
``--help`` of the parser and of each subcommand, with ``COLUMNS=80`` so the
wrapping does not depend on the terminal.

Two checkouts give the same bytes exactly when they print the same lines:

    python3 scripts/output_digests.py > a.txt    # in one checkout
    python3 scripts/output_digests.py > b.txt    # in the other
    diff a.txt b.txt

It imports the package from this checkout's ``src/`` and works in a
temporary directory, removed at exit, on copies of the corpora under their
own names, so no path of either checkout reaches the outputs. Each corpus
gets one fresh cache for ``conjecture``: its first combination builds the
table, the others read it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sharpbounds import cli  # noqa: E402
from sharpbounds.invariants import standard_invariants  # noqa: E402

CORPORA = ("cubic_connected_4_10.g6", "mixed_graphs.g6")
FILTERS = ("both", "none", "generality", "dalmatian")
FORMATS = ("text", "structured")
# the cuts digested under the filter choices without the Dalmatian filter
TOP_K = {"generality": ("1", "3"), "none": ("1", "3")}
# ``invariants`` column requests, by the name each digest line gives them
COLUMNS = {"all": (), "alpha": ("--columns", "alpha"),
           "connected,order": ("--columns", "connected,order")}
# a config that sets every key; each config error is written into it
CONFIG = ("corpus = {corpus}\ntargets = {targets}\ndirections = lower,upper\n"
          "max_hypothesis_size = 3\nmin_support = 4\nfilters = both\n"
          "top_k = 7\nformat = structured\nexport = config-export.jsonl\n"
          "cache = {cache}\n")
# alpha <= n holds on every graph, alpha <= delta fails on the mixed corpus
GOOD = {"target": "independence_number", "other": "order",
        "direction": "upper", "slope": [1, 1], "intercept": [0, 1],
        "hypothesis": [], "touch_number": 1, "support_size": 1,
        "touch_set": ["x"], "statement": "α(G) ≤ n(G)"}
FALSE = dict(GOOD, other="min_degree", statement="α(G) ≤ δ(G)")
# each kind of record verify reports as an ERROR line and does not check
BAD = [dict(GOOD, other="girth"), dict(GOOD, direction="sideways"),
       {k: v for k, v in GOOD.items() if k != "other"}, [1, 2],
       dict(GOOD, other=GOOD["target"]), dict(GOOD, hypothesis=["planar"]),
       dict(GOOD, touch_number=2), dict(GOOD, slope=[1, 0]),
       dict(GOOD, hypothesis="connected"), dict(GOOD, touch_number=True),
       dict(GOOD, support_size=0)]


def run(digest, argv: list[str]) -> str:
    """Run the command line in process; hash its exit code and output, and
    return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    return out.getvalue()


def set_first_cell(table: Path, column: str, cell) -> None:
    """Replace the first row's ``column`` cell by ``cell(old cell)``."""
    header, first, rest = table.read_text(encoding="utf-8").split("\n", 2)
    cells = first.split("\t")
    at = header.split("\t").index(column)
    cells[at] = cell(cells[at])
    table.write_text("\n".join([header, "\t".join(cells), rest]),
                     encoding="utf-8")


def plant_bad_cell(table: Path) -> None:
    """Write ``TRUE``, a cell the cache never holds, as the first row's
    ``connected`` cell."""
    set_first_cell(table, "connected", lambda old: "TRUE")


def plant_leading_zero(table: Path) -> None:
    """Give the first row's ``order`` cell a leading zero: ``int()`` reads
    the same value, but the cache never holds such a cell."""
    set_first_cell(table, "order", lambda old: "0" + old)


def append_non_utf8(table: Path) -> None:
    with table.open("ab") as fh:
        fh.write(b"\xff")


# the cache rewrite runs: ``invariants`` arguments, and the damage done to
# the cache file before the run
WIDER = ("--columns", "mu,alpha,connected")
REWRITES = ((("--columns", "alpha"), None), (WIDER, None),
            (WIDER, plant_bad_cell), ((), append_non_utf8),
            ((), plant_leading_zero))


def hash_tables(digest, cache: Path) -> None:
    """Hash the name and bytes of each table cache file."""
    for table in sorted(cache.iterdir()):
        digest.update(table.name.encode() + b"\0" + table.read_bytes() + b"\0")


def main() -> int:
    targets = ",".join(standard_invariants())
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for corpus in CORPORA:
            shutil.copyfile(ROOT / "data" / corpus, corpus)
        structured_is_export = True
        for corpus in CORPORA:
            cache = Path(f"cache-{corpus}")
            for filters in FILTERS:
                for fmt in FORMATS:
                    digest = hashlib.sha256()
                    export = Path("export.jsonl")
                    out = run(digest, ["conjecture", "--corpus", corpus,
                                       "--targets", targets,
                                       "--filters", filters,
                                       "--max-hypothesis-size", "3",
                                       "--format", fmt, "--cache", str(cache),
                                       "--export", str(export)])
                    digest.update(export.read_bytes() + b"\0")
                    if fmt == "structured":
                        structured_is_export &= \
                            out.encode() == export.read_bytes()
                    for against in CORPORA:
                        run(digest, ["verify", str(export), against])
                    hash_tables(digest, cache)
                    export.unlink()
                    print(f"{corpus} {filters} {fmt} {digest.hexdigest()}")
        for corpus in CORPORA:
            for filters, cuts in TOP_K.items():
                for top_k in cuts:
                    digest = hashlib.sha256()
                    export = Path("export.jsonl")
                    run(digest, ["conjecture", "--corpus", corpus,
                                 "--targets", targets, "--filters", filters,
                                 "--max-hypothesis-size", "3",
                                 "--top-k", top_k,
                                 "--cache", f"cache-{corpus}",
                                 "--export", str(export)])
                    digest.update(export.read_bytes() + b"\0")
                    export.unlink()
                    print(f"{corpus} {filters} top-k {top_k} "
                          f"{digest.hexdigest()}")
        for corpus in CORPORA:
            for name, columns in COLUMNS.items():
                digest = hashlib.sha256()
                run(digest, ["invariants", corpus, *columns, "--cache",
                             f"cache-invariants-{corpus}-{name}"])
                print(f"{corpus} invariants {name} {digest.hexdigest()}")
        for corpus in CORPORA:
            digest = hashlib.sha256()
            cache = Path(f"cache-rewrites-{corpus}")
            for columns, damage in REWRITES:
                if damage:
                    (table,) = cache.iterdir()
                    damage(table)
                run(digest, ["invariants", corpus, *columns, "--cache",
                             str(cache)])
                hash_tables(digest, cache)
            print(f"{corpus} cache-rewrites {digest.hexdigest()}")
        for corpus in CORPORA:
            digest = hashlib.sha256()
            cache = Path(f"cache-config-{corpus}")
            Path("every-key.cfg").write_text(CONFIG.format(
                corpus=corpus, targets=targets, cache=cache))
            run(digest, ["conjecture", "--config", "every-key.cfg"])
            export = Path("config-export.jsonl")
            digest.update(export.read_bytes() + b"\0")
            export.unlink()
            hash_tables(digest, cache)
            print(f"{corpus} config {digest.hexdigest()}")
        base = CONFIG.format(corpus=CORPORA[0], targets="alpha",
                             cache="cache-config-errors")
        errors = {"unknown-key": base + "top-k = 3\n",
                  "repeated-key": base + "top_k = 3\n",
                  "no-equals": base + "top_k 3\n",
                  "non-integer": base.replace("top_k = 7", "top_k = seven"),
                  "bad-filters": base.replace("= both", "= all"),
                  "bad-format": base.replace("= structured", "= json")}
        for name, text in errors.items():
            Path(f"{name}.cfg").write_text(text)
            digest = hashlib.sha256()
            run(digest, ["conjecture", "--config", f"{name}.cfg"])
            print(f"config-error {name} {digest.hexdigest()}")
        export = Path("bad-records.jsonl")
        export.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n"
                                  for record in [*BAD, GOOD, FALSE]),
                          encoding="utf-8")
        digest = hashlib.sha256()
        for against in CORPORA:
            run(digest, ["verify", str(export), against])
        print(f"verify bad-records {digest.hexdigest()}")
        print(f"structured-stdout-equals-export {structured_is_export}")
        os.environ["COLUMNS"] = "80"
        for command in (None, "invariants", "conjecture", "verify"):
            digest = hashlib.sha256()
            run(digest, [command, "--help"] if command else ["--help"])
            print(f"help {command or 'sharpbounds'} {digest.hexdigest()}")
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
