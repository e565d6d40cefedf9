"""Per-graph property tables and hypothesis-conditioned row selection.

A table maps an ordered corpus of labeled graphs to numeric invariant
columns (cells may be missing where an invariant is undefined) and Boolean
predicate columns. Tables are pure functions of corpus and registries and
can be cached as tab-separated text keyed by a corpus digest, because the
exact solvers are the expensive part of a run. The digest of a
:class:`~sharpbounds.graph6.Graph6Corpus` reads its labels and graph6 lines,
so a cache hit decodes no graph.

A set of rows is an ``int`` bitmask: bit ``i`` stands for row ``i``. A
hypothesis's support is the AND of its predicates' column masks, and row
selection returns grouped points ``(x, y, rows)``, one per distinct value
pair in (x, y) order, with ``rows`` the mask of the selected rows holding
that pair. The predicate masks are built with the table and each column
pair's sorted grouping on its first selection, so a selection is one
filtering pass and the fitter reads its points in x order without sorting.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import ConfigError, UndefinedInvariantError
from .graph6 import Graph6Corpus, to_graph6
from .graphs import Graph
from .invariants import DISPLAY_SYMBOLS, standard_invariants
from .predicates import standard_predicates


@dataclass(frozen=True, init=False)
class Hypothesis:
    """A conjunction of Boolean column names; empty means all objects."""

    predicates: frozenset[str]

    def __init__(self, predicates=()):
        object.__setattr__(self, "predicates", frozenset(predicates))

    @cached_property
    def key(self) -> tuple[str, ...]:
        """Sorted name tuple; the canonical identity and sort key."""
        return tuple(sorted(self.predicates))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypothesis({list(self.key)!r})"


@dataclass(frozen=True)
class FeatureTable:
    """Numeric and Boolean property columns over an ordered corpus."""

    labels: tuple[str, ...]
    numeric: dict[str, tuple[Optional[int], ...]]
    boolean: dict[str, tuple[bool, ...]]
    # predicate name -> row mask where it holds; built with the table
    _masks: dict[str, int] = field(init=False, repr=False, compare=False)
    # (x, y) -> grouped points over every row; filled on first selection
    _pairs: dict[tuple[str, str], list[tuple[int, int, int]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise ConfigError("empty corpus")
        if len(set(self.labels)) != n:
            raise ConfigError("corpus labels are not unique")
        for name, col in list(self.numeric.items()) + list(self.boolean.items()):
            if len(col) != n:
                raise ConfigError(f"column {name!r} has wrong length")
        overlap = set(self.numeric) & set(self.boolean)
        if overlap:
            raise ConfigError(f"column names reused across kinds: {sorted(overlap)}")
        masks = {name: sum(1 << i for i, v in enumerate(col) if v)
                 for name, col in self.boolean.items()}
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_pairs", {})

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def support(self, h: Hypothesis) -> int:
        """Row mask where every predicate of the hypothesis holds."""
        mask = (1 << self.n_rows) - 1
        for name in h.key:
            try:
                mask &= self._masks[name]
            except KeyError:
                raise ConfigError(f"unknown Boolean column {name!r}") from None
        return mask

    def select_rows(self, support: int, x: str, y: str
                    ) -> tuple[tuple[int, int, int], ...]:
        """Grouped points ``(x, y, rows)`` of the rows in ``support`` (a row
        mask, as :meth:`support` returns) with both values present.

        There is one point per distinct value pair, ``rows`` is the mask of
        its selected rows, and points come in (x, y) order: the grouping is
        sorted once per column pair, so a selection only filters it.
        """
        groups = self._pairs.get((x, y))
        if groups is None:
            groups = self._pairs[(x, y)] = self._group_rows(x, y)
        return tuple([(xv, yv, sel) for xv, yv, rows in groups
                      if (sel := rows & support)])

    def _group_rows(self, x: str, y: str) -> list[tuple[int, int, int]]:
        # every row with both values, grouped by (x, y) value pair, in
        # (x, y) order
        if x == y:
            raise ConfigError("x and y columns must differ")
        for name in (x, y):
            if name not in self.numeric:
                raise ConfigError(f"unknown numeric column {name!r}")
        groups: dict[tuple[int, int], int] = {}
        for i, pair in enumerate(zip(self.numeric[x], self.numeric[y])):
            if pair[0] is not None and pair[1] is not None:
                groups[pair] = groups.get(pair, 0) | 1 << i
        return [(xv, yv, rows) for (xv, yv), rows in sorted(groups.items())]


def corpus_labels(corpus: Sequence[Graph]) -> tuple[str, ...]:
    """Each graph's label, or ``g<position>`` (from 1) for unlabeled graphs.
    A :class:`Graph6Corpus` gives its labels without decoding."""
    if isinstance(corpus, Graph6Corpus):
        return corpus.labels
    return tuple(g.label if g.label else f"g{i}" for i, g in enumerate(corpus, 1))


def _cell(fn: Callable[[Graph], int], g: Graph) -> Optional[int]:
    try:
        return fn(g)
    except UndefinedInvariantError:
        return None


def build_table(corpus: Sequence[Graph],
                invariants: dict[str, Callable[[Graph], int]] | None = None,
                predicates: dict[str, Callable[[Graph], bool]] | None = None,
                ) -> FeatureTable:
    """Evaluate both registries on every corpus graph.

    Rows are named by :func:`corpus_labels`. An invariant that raises
    :class:`UndefinedInvariantError` leaves a missing cell.
    """
    invariants = invariants if invariants is not None else standard_invariants()
    predicates = predicates if predicates is not None else standard_predicates()
    numeric = {name: tuple(_cell(fn, g) for g in corpus)
               for name, fn in invariants.items()}
    boolean = {name: tuple(fn(g) for g in corpus)
               for name, fn in predicates.items()}
    table = FeatureTable(corpus_labels(corpus), numeric, boolean)
    _check_identities(table)
    return table


# Identities between the exact invariants, as (statement, columns, test):
# a row that breaks one holds a wrong solver value
_IDENTITIES = (
    ("α + β = n", ("independence_number", "vertex_cover_number", "order"),
     lambda alpha, beta, n: alpha + beta == n),
    ("γ ≤ i ≤ α", ("domination_number", "independent_domination_number",
                   "independence_number"),
     lambda gamma, i, alpha: gamma <= i <= alpha),
    ("μ* ≤ μ ≤ 2μ*", ("min_maximal_matching", "matching_number"),
     lambda mu_star, mu: mu_star <= mu <= 2 * mu_star),
    ("μ ≤ β ≤ 2μ", ("matching_number", "vertex_cover_number"),
     lambda mu, beta: mu <= beta <= 2 * mu),
    ("γ ≤ γ_t ≤ 2γ", ("domination_number", "total_domination_number"),
     lambda gamma, gamma_t: gamma <= gamma_t <= 2 * gamma),
    ("Z ≥ δ", ("zero_forcing_number", "min_degree"),
     lambda z, delta: z >= delta),
)


def _check_identities(table: FeatureTable, cache: Path | None = None,
                      parsed: frozenset[str] = frozenset()) -> None:
    # Every identity whose columns the table holds, on every row where they
    # are all present; a violation is a ConfigError naming the row, the
    # identity and the values, and the cache file when one of the
    # identity's columns is in ``parsed``, the columns read from it. Tables
    # built by hand are not checked.
    for statement, names, holds in _IDENTITIES:
        if not all(name in table.numeric for name in names):
            continue
        columns = zip(*(table.numeric[name] for name in names))
        for label, values in zip(table.labels, columns):
            if None not in values and not holds(*values):
                shown = ", ".join(f"{DISPLAY_SYMBOLS[name]} = {value}"
                                  for name, value in zip(names, values))
                read = not parsed.isdisjoint(names)
                source = f"table cache {cache}" if read else "feature table"
                raise ConfigError(f"{source}: row {label}: {statement} "
                                  f"fails with {shown}")


# ---------------------------------------------------------------------------
# Cache: one TSV per corpus digest
# ---------------------------------------------------------------------------

def corpus_digest(corpus: Sequence[Graph]) -> str:
    """Content digest of a labeled corpus: each graph's label and graph6
    string, one ``label graph6`` line per graph.

    A :class:`Graph6Corpus` gives its labels and stripped file lines without
    decoding; other graphs are encoded in canonical graph6. A file of
    canonical lines therefore has the digest of its decoded graphs, and a
    byte-different encoding of the same graphs only keys another cache file.
    """
    if isinstance(corpus, Graph6Corpus):
        pairs = zip(corpus.labels, corpus.lines)
    else:
        pairs = ((g.label or "", to_graph6(g)) for g in corpus)
    text = "\n".join(f"{label} {line}" for label, line in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def cache_file(corpus: Sequence[Graph], cache_dir: str | Path) -> Path:
    """The table cache file of ``corpus`` in ``cache_dir``."""
    return Path(cache_dir) / f"{corpus_digest(corpus)}.tsv"


def save_table(table: FeatureTable, path: str | Path,
               keep: dict[str, Sequence[str]] | None = None) -> None:
    """Write the table as TSV: label column first, missing cells empty.
    Columns of ``keep`` (name -> cell texts) come first, in their order; a
    table column takes the place of the one with its name. A label holding
    a tab, a line feed or a carriage return (a line end to a text read),
    which no read could split off, raises :class:`ConfigError` and nothing
    is written."""
    for label in table.labels:
        if any(c in label for c in "\t\n\r"):
            raise ConfigError(f"label {label!r} holds a tab or a line end, "
                              "which a table file cannot hold")
    columns = {name: cells for name, cells in (keep or {}).items()
               if name != "label"}
    for name, col in table.numeric.items():
        columns[name] = ["" if v is None else str(v) for v in col]
    for name, col in table.boolean.items():
        columns[name] = ["true" if v else "false" for v in col]
    lines = ["\t".join(["label", *columns])]
    lines += ["\t".join(row) for row in zip(table.labels, *columns.values())]
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step.

    The text is written as UTF-8, whatever the locale, to a temporary file
    in the same directory, which then replaces ``path``. If anything fails
    the temporary file is removed, so ``path`` keeps its old content and
    nothing else is left behind. An :class:`OSError` names ``path``, not the
    temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# a numeric column as save_table writes it, one cell a line: str(v) or empty
_NUMERIC_COLUMN = re.compile(r"(?:(?:0|-?[1-9][0-9]*)?\n)*")


def _parse_numeric(cells: Sequence[str]) -> tuple[Optional[int], ...]:
    # an empty cell is a missing value; any cell save_table cannot have
    # written (" 4", "04", "-0", "+٤") raises
    if not _NUMERIC_COLUMN.fullmatch("\n".join(cells) + "\n"):
        raise ValueError("numeric cells must read as save_table writes them")
    if "" not in cells:
        return tuple(map(int, cells))
    return tuple(None if c == "" else int(c) for c in cells)


def _parse_boolean(cells: Sequence[str]) -> tuple[bool, ...]:
    # save_table writes only these two cells; any other raises
    if not set(cells) <= {"true", "false"}:
        raise ValueError("Boolean cells must read 'true' or 'false'")
    return tuple(c == "true" for c in cells)


def load_table(path: str | Path,
               numeric_names: Sequence[str],
               boolean_names: Sequence[str]) -> FeatureTable:
    """Read a TSV written by :func:`save_table`.

    The caller says which columns are numeric and which Boolean. Each of
    those columns that the file holds is parsed, in the file's column order;
    any other column of the file is left unread, so a wider table file
    serves a narrower request. A requested column with a cell that
    :func:`save_table` cannot have written (a numeric cell other than an
    empty one or ``str`` of an integer, a Boolean cell other than ``true``
    and ``false``) is left out, like one the file lacks. A file that is not
    UTF-8 text or not a table raises :class:`ConfigError`.
    """
    return _read_table(path, numeric_names, boolean_names)[0]


def _read_table(path: str | Path, numeric_names: Sequence[str],
                boolean_names: Sequence[str]
                ) -> tuple[FeatureTable, dict[str, tuple[str, ...]]]:
    # load_table's table, and every column of the file as cell texts, label
    # first, from one read of the file
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read table file {path}: not UTF-8 text") from None
    if not text:
        raise ConfigError(f"empty table file {path}")
    # split on "\n" alone, the line end save_table writes (a text read turns
    # "\r\n" into it): a label may hold any other line separator
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split("\t")
    if header[:1] != ["label"]:
        raise ConfigError(f"table file {path} lacks a label column")
    rows = [line.split("\t") for line in lines[1:]]
    for lineno, cells in enumerate(rows, start=2):
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{lineno}: wrong cell count")
    cells = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    numeric_names, boolean_names = set(numeric_names), set(boolean_names)
    numeric, boolean = {}, {}
    for name, col in cells.items():
        try:
            if name in numeric_names:
                numeric[name] = _parse_numeric(col)
            elif name in boolean_names:
                boolean[name] = _parse_boolean(col)
        except ValueError:
            pass
    return FeatureTable(cells["label"], numeric, boolean), cells


def load_or_build_table(corpus: Sequence[Graph],
                        cache_dir: str | Path | None = None,
                        invariants: dict[str, Callable[[Graph], int]] | None = None,
                        predicates: dict[str, Callable[[Graph], bool]] | None = None,
                        ) -> FeatureTable:
    """Build the feature table, reusing a digest-keyed TSV cache when possible.

    The cache file is :func:`cache_file`, read once and parsed as
    :func:`load_table` parses it. A cached file with exactly the corpus
    labels is reused: a file holding every requested column is left as it
    is, and the corpus graphs are not touched (a :class:`Graph6Corpus` stays
    undecoded); otherwise only the missing columns, those the file lacks or
    has a bad cell in, are computed and the file is rewritten, from the same
    read, with its old columns plus the new ones. A file that cannot be
    read or whose labels differ (one cut short, say) is rebuilt and
    overwritten. The cache directory is made only to write a table into it.
    """
    invariants = invariants if invariants is not None else standard_invariants()
    predicates = predicates if predicates is not None else standard_predicates()
    if cache_dir is None:
        return build_table(corpus, invariants, predicates)

    path = cache_file(corpus, cache_dir)
    table = None
    if path.exists():
        try:
            table, kept = _read_table(path, list(invariants), list(predicates))
        except ConfigError:
            pass
    if table is None or table.labels != corpus_labels(corpus):
        table, kept = build_table(corpus, invariants, predicates), {}
    else:
        parsed = frozenset(table.numeric)
        missing = ({name: fn for name, fn in invariants.items()
                    if name not in table.numeric},
                   {name: fn for name, fn in predicates.items()
                    if name not in table.boolean})
        if any(missing):
            built = build_table(corpus, *missing)
            table = FeatureTable(table.labels, {**table.numeric, **built.numeric},
                                 {**table.boolean, **built.boolean})
        _check_identities(table, path, parsed)
        if not any(missing):
            return table
    path.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, path, kept)
    return table
