"""Conjecture generation, filtering, ranking, rendering and verification.

The generation loop sweeps every (target, direction, other property,
hypothesis) combination and fits the touch-maximal sharp bound on the
selected rows. Hypotheses with the same support select the same rows, so
the sweep fits once per distinct support and returns one :class:`FitRecord`
per (target, direction, other property, support): the integer bound and
touched-row mask of the fit, the support mask, and every hypothesis sharing
the support. Row sets are ``int`` bitmasks throughout (see
:mod:`sharpbounds.features`).

Filtering removes conjectures that are strictly less general than an
identical bound (generality filter) or that touch no object untouched by an
earlier accepted conjecture (Dalmatian filter). The filters, the ranking
and the per-group truncation take fit records as well as conjectures, and
:func:`run_pipeline` runs them all on the records, so a :class:`Conjecture`
(with its label touch set) is built only for each listed bound;
:func:`generate` builds one for every hypothesis of every record.
Conjectures are presented in non-increasing touch-number order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .errors import ConfigError, UndefinedInvariantError
from .features import (FeatureTable, Hypothesis, corpus_labels,
                       write_text_atomic)
from .fitting import (LOWER, UPPER, FitResult, SharpBoundingFunction,
                      fit_linear_bound)
from .graphs import Graph, mask_rows
from .invariants import DISPLAY_SYMBOLS


@dataclass(frozen=True)
class Conjecture:
    """A conjectured inequality between two numeric properties.

    The claim: every object satisfying ``hypothesis`` has
    ``target <= slope*other + intercept`` (or >= for lower bounds), as
    ``bound`` states it; the direction is the bound's own.
    ``touch_set`` holds the labels of objects attaining equality in the
    generating corpus; ``support_size`` counts the objects satisfying the
    hypothesis there.
    """

    target: str
    other: str
    hypothesis: Hypothesis
    bound: SharpBoundingFunction
    touch_set: frozenset[str]
    touch_number: int
    support_size: int

    def __post_init__(self):
        if self.target == self.other:
            raise ValueError("target and other property must differ")
        if self.touch_number != len(self.touch_set) or self.touch_number < 1:
            raise ValueError("touch_number must equal |touch_set| and be >= 1")

    @property
    def direction(self) -> str:
        return self.bound.direction

    @property
    def statement(self) -> str:
        return render_conjecture(self)

    def bound_key(self) -> tuple:
        """Identity of the bound as a plain tuple: both properties, the
        direction and the reduced slope and intercept pairs, which are equal
        exactly when the bounds are."""
        b = self.bound
        return (self.target, self.other, b.direction, b.slope, b.intercept)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for one generation run."""

    targets: tuple[str, ...]
    directions: tuple[str, ...] = (UPPER, LOWER)
    max_hypothesis_size: int = 2
    min_support: int = 5
    filters: tuple[str, ...] = ("generality",)
    top_k: int = 10

    def __post_init__(self):
        if not self.targets:
            raise ConfigError("at least one target property is required")
        if not self.directions:
            raise ConfigError("at least one direction is required")
        for d in self.directions:
            if d not in (UPPER, LOWER):
                raise ConfigError(f"unknown direction {d!r}")
        # a repeated name would emit every conjecture of it twice
        for kind, names in (("target", self.targets), ("direction", self.directions)):
            for name in names:
                if names.count(name) > 1:
                    raise ConfigError(f"{kind} {name!r} is given more than once")
        if self.max_hypothesis_size < 0:
            raise ConfigError("max_hypothesis_size must be >= 0")
        if self.min_support < 1:
            raise ConfigError("min_support must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        for f in self.filters:
            if f not in ("generality", "dalmatian"):
                raise ConfigError(f"unknown filter {f!r}")


def enumerate_hypotheses(table: FeatureTable, max_size: int) -> list[Hypothesis]:
    """All predicate conjunctions up to ``max_size``, smallest first."""
    names = sorted(table.boolean)
    out = [Hypothesis()]
    for k in range(1, min(max_size, len(names)) + 1):
        out.extend(Hypothesis(combo) for combo in combinations(names, k))
    return out


@dataclass(slots=True)
class FitRecord:
    """One fit of the sweep: the touch-maximal bound of ``target`` against
    ``other`` in one direction, over the rows of one distinct hypothesis
    support.

    ``fit`` holds the integer bound and the touched-row mask, ``support``
    the row mask, and ``hypotheses`` every enumerated hypothesis with that
    support, in enumeration order. ``hypothesis`` is the smallest of them by
    key, the most general name of the support: the one the generality filter
    keeps among equal supports and the one a listed record is stated under.
    ``bound``, ``direction``, ``touch_number``, ``support_size``,
    ``statement`` and :meth:`bound_key` read as the record's conjecture's
    would, so the filters and the ranking take records and conjectures alike.
    """

    target: str
    other: str
    support: int
    fit: FitResult
    hypotheses: Sequence[Hypothesis]
    hypothesis: Hypothesis

    @property
    def bound(self) -> SharpBoundingFunction:
        return self.fit.bound

    @property
    def touch_number(self) -> int:
        return self.fit.touched.bit_count()

    @property
    def support_size(self) -> int:
        return self.support.bit_count()

    direction = Conjecture.direction
    statement = Conjecture.statement
    bound_key = Conjecture.bound_key


def fit_records(table: FeatureTable, config: EngineConfig) -> list[FitRecord]:
    """Run the fitting sweep; one record per (target, direction, other
    property, distinct hypothesis support) with at least ``min_support``
    selected rows.

    Hypotheses are grouped by support once per call. For each (target,
    other property), rows are selected once per distinct support that holds
    at least ``min_support`` rows with both values defined (counted on the
    masks, before any selection), and fitted in every direction from that
    one selection. Within a target, fits are memoised by (direction, grouped
    points), so columns that agree on the selected rows share one fit and
    one self-check.
    Records are ordered by target, direction, other property and first
    hypothesis, and are a pure function of table and config.
    """
    for target in config.targets:
        if target not in table.numeric:
            raise ConfigError(f"target {target!r} is not a numeric column")

    # support -> every hypothesis sharing it, in enumeration order
    shared: dict[int, list[Hypothesis]] = {}
    for h in enumerate_hypotheses(table, config.max_hypothesis_size):
        shared.setdefault(table.support(h), []).append(h)
    supports = [(support, tuple(hs), min(hs, key=attrgetter("key")))
                for support, hs in shared.items()]
    # column -> mask of the rows where it is defined
    defined = {name: sum(1 << i for i, v in enumerate(col) if v is not None)
               for name, col in table.numeric.items()}
    directions = sorted(config.directions)
    out: list[FitRecord] = []
    for target in sorted(config.targets):
        by_direction: dict[str, list[FitRecord]] = {d: [] for d in directions}
        # (direction, points) -> self-checked fit, for this target only
        memo: dict[tuple, FitResult] = {}
        for other in sorted(table.numeric):
            if other == target:
                continue
            both = defined[other] & defined[target]
            for support, hypotheses, smallest in supports:
                # the selection would hold exactly these rows
                if (support & both).bit_count() < config.min_support:
                    continue
                points = table.select_rows(support, x=other, y=target)
                for direction in directions:
                    key = (direction, points)
                    fit = memo.get(key)
                    first = fit is None
                    if first:
                        fit = memo[key] = fit_linear_bound(points, direction)
                    record = FitRecord(target, other, support, fit,
                                       hypotheses, smallest)
                    if first:
                        _self_check(record, points, table.labels)
                    by_direction[direction].append(record)
        for direction in directions:
            out.extend(by_direction[direction])
    return out


def generate(table: FeatureTable, config: EngineConfig) -> list[Conjecture]:
    """Run the full fitting sweep; returns the unfiltered conjecture list.

    Every fit record (:func:`fit_records`) becomes one conjecture per
    hypothesis sharing its support. Output is ordered by target, direction,
    other property and hypothesis, and is a pure function of table and
    config.
    """
    # every hypothesis of every record, in enumeration order (smallest
    # first, then by name) within each (target, direction, other)
    touch_sets: dict[int, frozenset[str]] = {}
    out = [_conjecture(r, table.labels, touch_sets)
           for r in _per_hypothesis(fit_records(table, config))]
    out.sort(key=lambda c: (c.target, c.direction, c.other,
                            len(c.hypothesis.key), c.hypothesis.key))
    return out


def _per_hypothesis(records: Sequence[FitRecord]) -> list[FitRecord]:
    # one record per hypothesis of each record, stated under it
    return [FitRecord(r.target, r.other, r.support, r.fit, (h,), h)
            for r in records for h in r.hypotheses]


def _conjecture(record: FitRecord, labels: Sequence[str],
                touch_sets: dict[int, frozenset[str]]) -> Conjecture:
    # the record's conjecture, stated under record.hypothesis; touch_sets
    # caches each touched mask's label set across calls
    touched = record.fit.touched
    touch_set = touch_sets.get(touched)
    if touch_set is None:
        touch_set = touch_sets[touched] = frozenset(
            labels[i] for i in mask_rows(touched))
    return Conjecture(
        target=record.target,
        other=record.other,
        hypothesis=record.hypothesis,
        bound=record.fit.bound,
        touch_set=touch_set,
        touch_number=len(touch_set),
        support_size=record.support.bit_count(),
    )


def _self_check(record: FitRecord, points: Sequence[tuple[int, int, int]],
                labels: Sequence[str]) -> None:
    # Defense in depth against fitter regressions: re-verify the inequality
    # on every fitted point with the comparison verify uses. The lowest bit
    # of the violation mask is the lowest violating row.
    violated = record.bound.violations(points)
    if violated:
        raise AssertionError(
            f"generated conjecture violated on row "
            f"{labels[next(mask_rows(violated))]}: {record.statement}")


# ---------------------------------------------------------------------------
# Filters and ordering
# ---------------------------------------------------------------------------

def generality_filter(items: Sequence, table: FeatureTable) -> list:
    """Drop conjectures strictly less general than an identical bound.

    Within each group sharing (target, other, direction, slope, intercept),
    a conjecture whose support is a strict subset of another's is removed;
    among equal supports the lexicographically smallest hypothesis stays.

    ``items`` are conjectures or fit records (:func:`fit_records`), and the
    kept ones come back in input order. A record carries its support mask
    and stands for all its hypotheses, of which only its smallest
    (:attr:`FitRecord.hypothesis`) could stay, so filtering records keeps
    exactly the conjectures that filtering their expansion would.
    """
    supports: dict[Hypothesis, int] = {}
    # bound -> support -> index of its representative; among equal supports
    # the smallest hypothesis wins
    groups: dict[tuple, dict[int, int]] = {}
    for idx, item in enumerate(items):
        h = item.hypothesis
        if isinstance(item, FitRecord):
            sup = item.support
        else:
            sup = supports.get(h)
            if sup is None:
                sup = supports[h] = table.support(h)
        by_support = groups.setdefault(item.bound_key(), {})
        cur = by_support.get(sup)
        if cur is None or h.key < items[cur].hypothesis.key:
            by_support[sup] = idx

    keep: set[int] = set()
    for by_support in groups.values():
        # strict subsets of any other support are removed
        for sup, idx in by_support.items():
            if not any(sup & other == sup and sup != other for other in by_support):
                keep.add(idx)
    return [item for i, item in enumerate(items) if i in keep]


def sort_conjectures(items: Sequence) -> list:
    """Non-increasing touch number; ties by larger support, then statement.

    ``items`` are conjectures or fit records.
    """
    return sorted(items,
                  key=lambda c: (-c.touch_number, -c.support_size, c.statement))


def dalmatian_filter(items: Sequence) -> list:
    """Keep a conjecture only if it touches an object no earlier accepted
    conjecture of the same target and direction touched.

    Input order is acceptance order, so callers sort first. ``items`` are
    conjectures, compared by label touch set, or fit records of one table,
    compared by touched-row mask.
    """
    # (target, direction) -> union of the accepted touch sets or masks
    claimed: dict[tuple[str, str], object] = {}
    out = []
    for c in items:
        touched = c.fit.touched if isinstance(c, FitRecord) else c.touch_set
        key = (c.target, c.direction)
        pool = claimed.get(key)
        grown = touched if pool is None else pool | touched
        if grown != pool:
            claimed[key] = grown
            out.append(c)
    return out


def truncate_per_group(items: Sequence, top_k: int) -> list:
    """Keep the first ``top_k`` conjectures (or fit records) of each
    (target, direction)."""
    counts: dict[tuple[str, str], int] = {}
    out = []
    for c in items:
        key = (c.target, c.direction)
        if counts.get(key, 0) < top_k:
            counts[key] = counts.get(key, 0) + 1
            out.append(c)
    return out


def run_pipeline(table: FeatureTable, config: EngineConfig) -> list[Conjecture]:
    """generate, filter, sort and truncate in one deterministic pass.

    Filtering, ranking and truncation run on the fit records, before any
    conjecture exists, and each listed record becomes one conjecture. With
    the generality filter a record stands for its smallest hypothesis;
    without it, for each of its hypotheses, as in :func:`generate`. Either
    way the result equals filtering, sorting and truncating ``generate``'s
    list.
    """
    records = fit_records(table, config)
    if "generality" in config.filters:
        records = generality_filter(records, table)
    else:
        records = _per_hypothesis(records)
    records = sort_conjectures(records)
    if "dalmatian" in config.filters:
        records = dalmatian_filter(records)
    touch_sets: dict[int, frozenset[str]] = {}
    return [_conjecture(r, table.labels, touch_sets)
            for r in truncate_per_group(records, config.top_k)]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_fraction(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _display(name: str) -> str:
    return DISPLAY_SYMBOLS.get(name, name)


def render_conjecture(c: Conjecture) -> str:
    """Deterministic one-line statement with unit and zero terms elided."""
    (p, q), (b, e) = c.bound.slope, c.bound.intercept
    rel = "≤" if c.direction == UPPER else "≥"
    lhs = f"{_display(c.target)}(G)"
    var = f"{_display(c.other)}(G)"

    if p == 0:
        rhs = _fmt_fraction(b, e)
    else:
        if (p, q) == (1, 1):
            rhs = var
        elif (p, q) == (-1, 1):
            rhs = f"-{var}"
        elif q == 1:
            rhs = f"{p}·{var}"
        else:
            rhs = f"({_fmt_fraction(p, q)})·{var}"
        if b > 0:
            rhs += f" + {_fmt_fraction(b, e)}"
        elif b < 0:
            rhs += f" - {_fmt_fraction(-b, e)}"

    statement = f"{lhs} {rel} {rhs}"
    if c.hypothesis.predicates:
        return f"If G is a {' and '.join(c.hypothesis.key)} graph, then {statement}"
    return statement


# ---------------------------------------------------------------------------
# Verification against a corpus
# ---------------------------------------------------------------------------

def find_counterexample(c: Conjecture, corpus: Sequence[Graph],
                        invariants: dict[str, Callable[[Graph], int]],
                        predicates: dict[str, Callable[[Graph], bool]],
                        ) -> Optional[tuple[str, Fraction, Fraction]]:
    """First hypothesis-satisfying graph violating the inequality, if any.

    Returns (label, lhs value, rhs value) or ``None``. Graphs on which an
    involved invariant is undefined are skipped, not counted as violations.
    Raises :class:`ConfigError` when the conjecture names unknown columns.
    """
    for name in (c.target, c.other):
        if name not in invariants:
            raise ConfigError(f"unknown invariant {name!r}")
    for name in c.hypothesis.key:
        if name not in predicates:
            raise ConfigError(f"unknown predicate {name!r}")

    for x, y, label in _hypothesis_points(c, corpus, invariants, predicates):
        if not c.bound.holds(x, y):
            return (label, Fraction(y), c.bound.evaluate(x))
    return None


def touch_count_on(c: Conjecture, corpus: Sequence[Graph],
                   invariants: dict[str, Callable[[Graph], int]],
                   predicates: dict[str, Callable[[Graph], bool]]) -> int:
    """How many hypothesis-satisfying corpus graphs attain equality."""
    return sum(1 for x, y, _ in _hypothesis_points(c, corpus, invariants, predicates)
               if c.bound.touches(x, y))


def _hypothesis_points(c: Conjecture, corpus: Sequence[Graph],
                       invariants: dict[str, Callable[[Graph], int]],
                       predicates: dict[str, Callable[[Graph], bool]]):
    # Lazily yields (x, y, label) per hypothesis graph with both values defined.
    for label, g in zip(corpus_labels(corpus), corpus):
        if not all(predicates[name](g) for name in c.hypothesis.key):
            continue
        try:
            y = invariants[c.target](g)
            x = invariants[c.other](g)
        except UndefinedInvariantError:
            continue
        yield x, y, label


# ---------------------------------------------------------------------------
# Structured export (one JSON record per line)
# ---------------------------------------------------------------------------

def conjecture_to_record(c: Conjecture) -> dict:
    return {
        "target": c.target,
        "other": c.other,
        "direction": c.direction,
        "slope": list(c.bound.slope),
        "intercept": list(c.bound.intercept),
        "hypothesis": list(c.hypothesis.key),
        "touch_number": c.touch_number,
        "support_size": c.support_size,
        "touch_set": sorted(c.touch_set),
        "statement": c.statement,
    }


def conjecture_from_record(record: dict) -> Conjecture:
    """Rebuild a conjecture from an export record.

    Raises :class:`ConfigError` when the record is not a well-formed object
    (a missing field, a zero denominator, an unknown direction, a name
    field that is not a list of names, ...).
    """
    try:
        # each pair is reduced here, once, so equal bounds compare equal
        bound = SharpBoundingFunction(
            Fraction(*record["slope"]).as_integer_ratio(),
            Fraction(*record["intercept"]).as_integer_ratio(),
            record["direction"],
        )
        return Conjecture(
            target=record["target"],
            other=record["other"],
            hypothesis=Hypothesis(_name_list(record, "hypothesis")),
            bound=bound,
            touch_set=frozenset(_name_list(record, "touch_set")),
            touch_number=record["touch_number"],
            support_size=record["support_size"],
        )
    except KeyError as exc:
        raise ConfigError(f"record lacks the {exc.args[0]!r} field") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed record: {exc}") from None


def _name_list(record: dict, field: str) -> list[str]:
    # a bare string would otherwise be taken apart into its characters
    names = record[field]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"the {field!r} field must be a list of names, "
                          f"got {names!r}")
    return names


def write_export(conjectures: Iterable[Conjecture], path: str | Path) -> None:
    """Write one JSON record per line, atomically (see :func:`write_text_atomic`)."""
    lines = [json.dumps(conjecture_to_record(c), ensure_ascii=False)
             for c in conjectures]
    write_text_atomic(path, "".join(line + "\n" for line in lines))


def read_export(path: str | Path) -> list[dict]:
    """Raw records; a line that is not JSON raises ConfigError at path:line."""
    return [record for _, record in read_numbered_export(path)]


def read_numbered_export(path: str | Path) -> list[tuple[int, object]]:
    """(line number, raw record) for every non-blank line, numbered from 1.

    A line that is not JSON raises ConfigError at path:line, and a file
    that is not UTF-8 text raises ConfigError naming the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read export {path}: not UTF-8 text") from None
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc.msg}") from None
    return records
