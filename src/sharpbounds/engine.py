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
earlier accepted conjecture (Dalmatian filter). :func:`run_pipeline` runs
the generality filter on the fit records, so a :class:`Conjecture` (with its
label touch set) is built only for each surviving
record, under its smallest hypothesis; :func:`generate` builds one for
every hypothesis of every record. Conjectures are presented in
non-increasing touch-number order.
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
        """Identity of the bound: both properties and the bound, whose
        direction and integer pairs are equal exactly when the bounds are."""
        return (self.target, self.other, self.bound)


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
    support, in enumeration order.
    """

    target: str
    other: str
    support: int
    fit: FitResult
    hypotheses: list[Hypothesis]

    @property
    def direction(self) -> str:
        return self.fit.bound.direction

    @property
    def hypothesis(self) -> Hypothesis:
        """The most general name of the support: its smallest hypothesis key,
        the one the generality filter keeps among equal supports."""
        return min(self.hypotheses, key=attrgetter("key"))

    def bound_key(self) -> tuple:
        """Equal to :meth:`Conjecture.bound_key` of the record's conjectures."""
        return (self.target, self.other, self.fit.bound)


def fit_records(table: FeatureTable, config: EngineConfig) -> list[FitRecord]:
    """Run the fitting sweep; one record per (target, direction, other
    property, distinct hypothesis support) with at least ``min_support``
    selected rows.

    For each (target, other property), rows are selected once per distinct
    support and fitted in every direction from that one selection. Within a
    target, fits are memoised by (direction, grouped points), so columns
    that agree on the selected rows share one fit and one self-check.
    Records are ordered by target, direction, other property and first
    hypothesis, and are a pure function of table and config.
    """
    for target in config.targets:
        if target not in table.numeric:
            raise ConfigError(f"target {target!r} is not a numeric column")

    supports = [(h, table.support(h))
                for h in enumerate_hypotheses(table, config.max_hypothesis_size)]
    directions = sorted(config.directions)
    labels = table.labels
    out: list[FitRecord] = []
    for target in sorted(config.targets):
        by_direction: dict[str, list[FitRecord]] = {d: [] for d in directions}
        # (direction, points) -> self-checked fit, for this target only
        memo: dict[tuple, FitResult] = {}
        for other in sorted(table.numeric):
            if other == target:
                continue
            # support -> its records, one per direction (none below
            # min_support), which collect every hypothesis sharing it
            shared: dict[int, list[FitRecord]] = {}
            for h, support in supports:
                records = shared.get(support)
                if records is None:
                    records = shared[support] = []
                    points = table.select_rows(support, x=other, y=target)
                    if sum(rows.bit_count() for _, _, rows in points) \
                            >= config.min_support:
                        for direction in directions:
                            key = (direction, points)
                            fit = memo.get(key)
                            first = fit is None
                            if first:
                                fit = memo[key] = fit_linear_bound(points, direction)
                            record = FitRecord(target, other, support, fit, [])
                            if first:
                                _self_check(record, h, points, labels)
                            records.append(record)
                            by_direction[direction].append(record)
                for record in records:
                    record.hypotheses.append(h)
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
    return _expand(fit_records(table, config), table.labels)


def _expand(records: Sequence[FitRecord], labels: Sequence[str]
            ) -> list[Conjecture]:
    # every hypothesis of every record, in enumeration order (smallest
    # first, then by name) within each (target, direction, other)
    touch_sets: dict[int, frozenset[str]] = {}
    out = [_conjecture(record, h, labels, touch_sets)
           for record in records for h in record.hypotheses]
    out.sort(key=lambda c: (c.target, c.direction, c.other,
                            len(c.hypothesis.key), c.hypothesis.key))
    return out


def _conjecture(record: FitRecord, h: Hypothesis, labels: Sequence[str],
                touch_sets: dict[int, frozenset[str]]) -> Conjecture:
    # touch_sets caches each touched mask's label set across calls
    touched = record.fit.touched
    touch_set = touch_sets.get(touched)
    if touch_set is None:
        touch_set = touch_sets[touched] = frozenset(
            labels[i] for i in mask_rows(touched))
    return Conjecture(
        target=record.target,
        other=record.other,
        hypothesis=h,
        bound=record.fit.bound,
        touch_set=touch_set,
        touch_number=len(touch_set),
        support_size=record.support.bit_count(),
    )


def _self_check(record: FitRecord, h: Hypothesis,
                points: Sequence[tuple[int, int, int]],
                labels: Sequence[str]) -> None:
    # Defense in depth against fitter regressions: re-verify the inequality
    # on every fitted point with the comparison verify uses. The points'
    # row masks are disjoint, so their sum is their union, and its lowest
    # bit is the lowest violating row.
    holds = record.fit.bound.holds
    violated = sum(rows for x, y, rows in points if not holds(x, y))
    if violated:
        conj = _conjecture(record, h, labels, {})
        raise AssertionError(
            f"generated conjecture violated on row "
            f"{labels[next(mask_rows(violated))]}: {conj.statement}")


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


def sort_conjectures(conjectures: Sequence[Conjecture]) -> list[Conjecture]:
    """Non-increasing touch number; ties by larger support, then statement."""
    return sorted(conjectures,
                  key=lambda c: (-c.touch_number, -c.support_size, c.statement))


def dalmatian_filter(conjectures: Sequence[Conjecture]) -> list[Conjecture]:
    """Keep a conjecture only if it touches an object no earlier accepted
    conjecture of the same target and direction touched.

    Input order is acceptance order, so callers sort first.
    """
    claimed: dict[tuple[str, str], set[str]] = {}
    out = []
    for c in conjectures:
        pool = claimed.setdefault((c.target, c.direction), set())
        if c.touch_set - pool:
            pool.update(c.touch_set)
            out.append(c)
    return out


def truncate_per_group(conjectures: Sequence[Conjecture], top_k: int
                       ) -> list[Conjecture]:
    """Keep the first ``top_k`` conjectures of each (target, direction)."""
    counts: dict[tuple[str, str], int] = {}
    out = []
    for c in conjectures:
        key = (c.target, c.direction)
        if counts.get(key, 0) < top_k:
            counts[key] = counts.get(key, 0) + 1
            out.append(c)
    return out


def run_pipeline(table: FeatureTable, config: EngineConfig) -> list[Conjecture]:
    """generate, filter, sort and truncate in one deterministic pass.

    The generality filter runs on the fit records, before any conjecture
    exists, and each surviving record becomes one conjecture under its
    smallest hypothesis. Without it every record is expanded as in
    :func:`generate`. Either way the result equals filtering, sorting and
    truncating ``generate``'s list.
    """
    records = fit_records(table, config)
    if "generality" in config.filters:
        touch_sets: dict[int, frozenset[str]] = {}
        conjectures = [_conjecture(r, r.hypothesis, table.labels, touch_sets)
                       for r in generality_filter(records, table)]
    else:
        conjectures = _expand(records, table.labels)
    conjectures = sort_conjectures(conjectures)
    if "dalmatian" in config.filters:
        conjectures = dalmatian_filter(conjectures)
    return truncate_per_group(conjectures, config.top_k)


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
