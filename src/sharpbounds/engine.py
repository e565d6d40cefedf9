"""Conjecture generation, filtering, ranking, rendering and verification.

The generation loop sweeps every (target, direction, other property,
hypothesis) combination and fits the touch-maximal sharp bound on the
selected rows. Hypotheses with the same support select the same rows, so
the sweep fits once per distinct support and returns one :class:`FitRecord`
per (target, direction, other property, support): the integer bound and
touched-row mask of the fit, the support mask, and the smallest hypothesis
with the support, which names it under every filter choice. Row sets are
``int`` bitmasks throughout (see :mod:`sharpbounds.features`). Within a
target, each distinct (direction, selection) is fitted and self-checked
once.

Filtering removes records that are strictly less general than an identical
bound (generality filter) or that touch no row untouched by an earlier
accepted record (the touch-cover form of the Dalmatian filter). Every group
of identical bounds lies inside one (target, other property, direction) and
holds distinct supports, so the sweep runs the generality filter on each
(target, other property) as it goes, on the bounds and supports alone, and
builds a record only for a survivor. A record ranks after every record with
more touches, so the sweep visits a target's selections by falling row
count and skips a (direction, selection) whose record the listing cannot
use: with the Dalmatian filter, one whose touchable rows the fits with more
touches already cover, as the filter would reject it; without it, one with
fewer touchable rows than ``top_k`` records of its (target, direction)
already touch, as the cut would drop it. The listing is the same (see
:func:`fit_records`).
The Dalmatian filter, the ranking and the per-group truncation take fit
records, and :func:`run_pipeline` builds a :class:`Conjecture` (with its
label touch set) only for each listed record. Conjectures are presented in
non-increasing touch-number order.
:func:`check_conjecture` re-checks a conjecture on any corpus: it reads the
hypothesis's support off a predicate table over the corpus and walks the
supporting graphs alone.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from pathlib import Path
from typing import (Callable, Container, Hashable, Iterable, Optional,
                    Sequence)

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
        if self.support_size < self.touch_number:  # touched rows are supported
            raise ValueError("support_size must be >= touch_number")

    @property
    def direction(self) -> str:
        return self.bound.direction

    @functools.cached_property
    def statement(self) -> str:
        # rendered once, then shared by the listing and the export
        return render_conjecture(self)


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
    return [Hypothesis(key) for key in _hypothesis_keys(table, max_size)]


def _hypothesis_keys(table: FeatureTable, max_size: int
                     ) -> Iterable[tuple[str, ...]]:
    # the sorted name tuple of each enumerated hypothesis, in order
    names = sorted(table.boolean)
    for k in range(min(max_size, len(names)) + 1):
        yield from combinations(names, k)


@dataclass(slots=True)
class FitRecord:
    """One fit of the sweep: the touch-maximal bound of ``target`` against
    ``other`` in one direction, over the rows of one distinct hypothesis
    support.

    ``fit`` holds the integer bound and the touched-row mask, and
    ``support`` the row mask. ``hypothesis`` is the smallest by key of the
    enumerated hypotheses with that support, the most general name of the
    support: the one the record is stated under.
    ``bound``, ``direction``, ``touch_number``, ``support_size`` and
    ``statement`` read as the record's conjecture's would. The filters and
    the ranking take records only; a record becomes a :class:`Conjecture`
    once it is listed.
    """

    target: str
    other: str
    support: int
    fit: FitResult
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
    statement = property(Conjecture.statement.func)


def fit_records(table: FeatureTable, config: EngineConfig) -> list[FitRecord]:
    """Run the fitting sweep; one record per (target, direction, other
    property, distinct hypothesis support) with at least ``min_support``
    selected rows, and only the generality survivors among them when
    ``config.filters`` names ``"generality"``. Records the listing cannot
    use may be left out (see below); ask with ``filters=()`` and a
    ``top_k`` above the number of records for every one of them.

    Supports are read off the predicates' row masks, once per call. For
    each target, the (other property, distinct support) selections holding
    at least ``min_support`` rows with both values defined (counted on the
    masks, before any selection) are visited in order of falling row count,
    and each is fitted in every direction from one selection. Within a
    target, fits are memoised by (selected points, direction), so columns
    that agree on the selected rows share one fit and one self-check. With
    the generality filter, :func:`generality_filter` runs on each (target,
    other property) before any record is built.

    A (direction, selection) is skipped when no fit touching only rows of
    some set r can be listed, with r each of three row sets, each inside
    the one before: the selection's rows, before
    :meth:`~FeatureTable.select_rows`; then, inside the fitter (the
    ``skip`` hook of :func:`~sharpbounds.fitting.fit_linear_bound`), the
    rows of the highest (upper) or lowest (lower) point at each x, the
    only rows a feasible line can touch; and, once the fitter has counted
    its candidate lines, the rows of those with the most touches, the
    fitted bound and any tied with it. A skipped fit is memoised as
    skipped: both tests below only skip more as fits are made. Both skip
    every subset of a set they skip, so testing a larger set first skips
    no fit the smaller set would not. One of the two tests runs, by whether
    the Dalmatian filter is on.

    With the Dalmatian filter, r is skipped when every row of it is already
    touched by fits of the same target and direction with more touches than
    r has rows. This is exact. A skipped record would touch only rows of r,
    each touched by a fit with more touches than it has. Such a fit is a
    record, or the generality survivor that removes it touches a superset
    of its rows; either way that record ranks strictly before the skipped
    one. The touch-cover filter would therefore reject the skipped record,
    and leaving it out changes no union of touched rows over a prefix of
    the ranking, so no other record's fate. A record whose generality
    dominator was skipped touches a subset of the dominator's rows and is
    rejected for the same reason.

    Without it, r is skipped when it has fewer rows than ``kth``: for each
    (target, direction), take the most touches of each (other property,
    bound) class among the fits made so far, and let ``kth`` be the
    ``top_k``-th largest of them (0 with fewer classes). This is exact too.
    The fits of a class share one generality group, and the one with the
    most touches is a record or is removed by a record of its class with a
    larger support, which touches a superset of its rows. So ``top_k``
    classes give ``top_k`` distinct records with at least ``kth`` touches,
    each ranking strictly before a skipped record, which touches at most
    the rows of r. Nothing but the per-group cut removes a record then, so
    the cut drops the skipped record, and drops too any record whose
    generality dominator was skipped, since it touches a subset of the
    dominator's rows. With no filter every fit is a record, and the
    argument holds the same way. It rests on distinct classes giving
    distinct listed records: a change that lists one inequality once across
    (target, other, bound) groups (ROADMAP item 10's key) must check it
    again, since two classes could then share one listed record.

    Records are ordered by target, direction, other property and support,
    supports in the order their first hypotheses are enumerated, whatever
    the visiting order, and are a pure function of table and config.
    """
    for target in config.targets:
        if target not in table.numeric:
            raise ConfigError(f"target {target!r} is not a numeric column")

    # support -> the smallest key of the hypotheses sharing it, supports in
    # the order their first hypotheses are enumerated
    masks = {name: table.support(Hypothesis((name,)))
             for name in table.boolean}
    everything = table.support(Hypothesis())
    smallest: dict[int, tuple[str, ...]] = {}
    for key in _hypothesis_keys(table, config.max_hypothesis_size):
        support = everything
        for name in key:
            support &= masks[name]
        known = smallest.get(support)
        if known is None or key < known:
            smallest[support] = key
    # (support, the smallest hypothesis sharing it)
    supports = [(support, Hypothesis(key)) for support, key in smallest.items()]
    # column -> mask of the rows where it is defined
    defined = {name: everything if None not in col else
               sum(1 << i for i, v in enumerate(col) if v is not None)
               for name, col in table.numeric.items()}
    directions = sorted(config.directions)
    general = "generality" in config.filters
    dalmatian = "dalmatian" in config.filters
    out: list[FitRecord] = []
    for target in sorted(config.targets):
        # (other, support entry, rows) for every selection with enough
        # rows, in (other property, support) order
        selections = []
        for other in sorted(table.numeric):
            if other == target:
                continue
            both = defined[other] & defined[target]
            for entry in supports:
                # the selection would hold exactly these rows
                rows = entry[0] & both
                if rows.bit_count() >= config.min_support:
                    selections.append((other, entry, rows))
        skips = {d: _CoverSkip(table.n_rows) if dalmatian
                 else _TopKSkip(table.n_rows, config.top_k)
                 for d in directions}
        fits = _fit_selections(table, target, selections, directions, skips)
        by_direction: dict[str, list[FitRecord]] = {d: [] for d in directions}
        for other, group in groupby(zip(selections, fits),
                                    key=lambda s: s[0][0]):
            # (fit, support entry) per fit, in support order
            found = [(fit, entry) for (_, entry, _), made in group
                     for fit in made]
            if general:
                # the bound alone identifies its group within (target, other)
                found = [found[i] for i in generality_filter(
                    [(fit.bound, entry[0]) for fit, entry in found])]
            for fit, (support, hypothesis) in found:
                by_direction[fit.bound.direction].append(
                    FitRecord(target, other, support, fit, hypothesis))
        for direction in directions:
            out.extend(by_direction[direction])
    return out


class _CoverSkip:
    # The Dalmatian test of one (target, direction): covers[t] is the union
    # of the touched rows of the fits with more than t touches, so covers
    # only shrink as t grows, and rows r are skipped when they all lie in
    # covers[popcount(r)] (see fit_records).
    __slots__ = ("covers",)

    def __init__(self, n_rows: int):
        self.covers = [0] * (n_rows + 1)

    def covered(self, rows: int) -> bool:
        return not rows & ~self.covers[rows.bit_count()]

    def add(self, other: str, fit: FitResult) -> None:
        # below the first cover that holds the touches, every cover does
        touched, covers = fit.touched, self.covers
        for t in range(touched.bit_count() - 1, -1, -1):
            if not touched & ~covers[t]:
                break
            covers[t] |= touched


class _TopKSkip:
    # The top-k test of one (target, direction): rows r are skipped when
    # popcount(r) < kth (see fit_records). best maps each (other, bound)
    # class to the most touches of its fits, at_least[t] counts the classes
    # with at least t touches, and kth is the largest t that top_k classes
    # reach (0 while there are fewer).
    __slots__ = ("top_k", "best", "at_least", "kth")

    def __init__(self, n_rows: int, top_k: int):
        self.top_k = top_k
        self.best: dict[tuple, int] = {}
        self.at_least = [0] * (n_rows + 2)
        self.kth = 0

    def covered(self, rows: int) -> bool:
        return rows.bit_count() < self.kth

    def add(self, other: str, fit: FitResult) -> None:
        key = (other, fit.bound)
        old, n = self.best.get(key, 0), fit.touched.bit_count()
        if n > old:
            self.best[key] = n
            at_least = self.at_least
            for t in range(old + 1, n + 1):
                at_least[t] += 1
            while at_least[self.kth + 1] >= self.top_k:
                self.kth += 1


def _fit_selections(table: FeatureTable, target: str, selections: list,
                    directions: Sequence[str], skips: dict
                    ) -> list[list[FitResult]]:
    # The fits of each (other, support entry, rows) selection, in direction
    # order, visited by falling row count; ties keep the selections' order.
    # skips[d] tests a row set in direction d and learns each fit kept
    # there; memo maps selected points to direction to the fit, or to None
    # when it was skipped.
    memo: dict[tuple, dict[str, Optional[FitResult]]] = {}
    fits: list[list[FitResult]] = [[] for _ in selections]
    order = sorted(range(len(selections)),
                   key=lambda k: selections[k][2].bit_count(), reverse=True)
    for k in order:
        other, entry, rows = selections[k]
        open_directions = [d for d in directions
                           if not skips[d].covered(rows)]
        if not open_directions:
            continue
        points = table.select_rows(entry[0], x=other, y=target)
        known = memo.get(points)
        if known is None:
            known = memo[points] = {}
        for d in open_directions:
            skip = skips[d]
            if d in known:
                fit = known[d]
            else:
                fit = known[d] = fit_linear_bound(points, d,
                                                  skip=skip.covered)
                if fit is not None:
                    _self_check(fit, points, table.labels, target, other,
                                entry)
            if fit is not None:
                fits[k].append(fit)
                skip.add(other, fit)
    return fits


def _conjecture(record: FitRecord, labels: Sequence[str]) -> Conjecture:
    # the record's conjecture, stated under record.hypothesis
    touch_set = frozenset(labels[i] for i in mask_rows(record.fit.touched))
    return Conjecture(
        target=record.target,
        other=record.other,
        hypothesis=record.hypothesis,
        bound=record.fit.bound,
        touch_set=touch_set,
        touch_number=len(touch_set),
        support_size=record.support.bit_count(),
    )


def _self_check(fit: FitResult, points: Sequence[tuple[int, int, int]],
                labels: Sequence[str], target: str, other: str,
                entry: tuple) -> None:
    # Defense in depth against fitter regressions: compare the fit's
    # inequality with every fitted point, as verify does. No row may violate
    # it, and the rows on its line must be exactly the fit's touched rows,
    # the mask that ranks, filters and exports the record. The message names
    # the lowest violating row, else the lowest row the two touch masks
    # disagree on, and states the fit under the support's smallest
    # hypothesis.
    violated, touched = fit.bound.compare(points)
    wrong = touched ^ fit.touched
    if violated or wrong:
        record = FitRecord(target, other, entry[0], fit, entry[1])
        what = "violated" if violated else "touched differently"
        row = labels[next(mask_rows(violated or wrong))]
        raise AssertionError(
            f"generated conjecture {what} on row {row}: {record.statement}")


# ---------------------------------------------------------------------------
# Filters and ordering
# ---------------------------------------------------------------------------

def generality_filter(pairs: Sequence[tuple[Hashable, int]]) -> list[int]:
    """The positions of the ``(bound, support mask)`` pairs that no
    identical bound makes strictly less general, in input order.

    A bound is any hashable identity: ``(target, other, bound)`` across
    properties. Within each group sharing a bound, a pair whose support is a
    strict subset of another's is removed. The sweep yields one fit per
    support, so two pairs with one bound and support raise ValueError.
    """
    # bound -> support -> position of its pair
    groups: dict[Hashable, dict[int, int]] = {}
    for idx, (bound, support) in enumerate(pairs):
        by_support = groups.get(bound)
        if by_support is None:
            groups[bound] = {support: idx}
        elif support in by_support:
            raise ValueError("two pairs share a bound and a support")
        else:
            by_support[support] = idx

    keep: list[int] = []
    for by_support in groups.values():
        if len(by_support) == 1:
            keep.extend(by_support.values())
            continue
        # A support is a strict subset of another iff it lies inside a
        # maximal one. Every strict superset has more rows, so in order of
        # falling row count the maximal supports met so far are all there
        # is to test, and a support inside none of them is maximal too.
        maximal: list[int] = []
        for sup in sorted(by_support, key=int.bit_count, reverse=True):
            for big in maximal:
                if sup & big == sup:
                    break
            else:
                maximal.append(sup)
                keep.append(by_support[sup])
    keep.sort()
    return keep


def sort_conjectures(records: Sequence[FitRecord]) -> list[FitRecord]:
    """Non-increasing touch number; ties by larger support, then statement."""
    return sorted(records,
                  key=lambda r: (-r.touch_number, -r.support_size, r.statement))


def dalmatian_filter(records: Sequence[FitRecord]) -> list[FitRecord]:
    """Keep a record only if it touches a row no earlier accepted record of
    the same target and direction touched.

    This is the touch-cover (equality-cover) form of the Dalmatian filter:
    the touched-row masks of the accepted records must grow with each
    acceptance. Input order is acceptance order, so callers sort first.
    """
    # (target, direction) -> union of the accepted touched-row masks
    claimed: dict[tuple[str, str], int] = {}
    out = []
    for r in records:
        key = (r.target, r.direction)
        pool = claimed.get(key, 0)
        grown = pool | r.fit.touched
        if grown != pool:
            claimed[key] = grown
            out.append(r)
    return out


def truncate_per_group(records: Sequence[FitRecord],
                       top_k: int) -> list[FitRecord]:
    """Keep the first ``top_k`` records of each (target, direction)."""
    counts: dict[tuple[str, str], int] = {}
    out = []
    for r in records:
        key = (r.target, r.direction)
        if counts.get(key, 0) < top_k:
            counts[key] = counts.get(key, 0) + 1
            out.append(r)
    return out


def run_pipeline(table: FeatureTable, config: EngineConfig) -> list[Conjecture]:
    """Fit, filter, sort and truncate in one deterministic pass.

    Filtering, ranking and truncation run on the fit records, before any
    conjecture exists, and each listed record becomes one conjecture. The
    generality filter runs inside :func:`fit_records`. A record it removes
    touches a subset of the rows of a record with its bound and a larger
    support, which ranks first, so the Dalmatian filter rejects it too.
    """
    records = sort_conjectures(fit_records(table, config))
    if "dalmatian" in config.filters:
        records = dalmatian_filter(records)
    return [_conjecture(r, table.labels)
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

def check_names(c: Conjecture, invariants: Container[str],
                predicates: Container[str]) -> None:
    """Raise :class:`ConfigError` naming the first column of the conjecture
    that is not among the known ones: its target, then its other invariant,
    then its hypothesis's predicates in sorted order."""
    for name in (c.target, c.other):
        if name not in invariants:
            raise ConfigError(f"unknown invariant {name!r}")
    for name in c.hypothesis.key:
        if name not in predicates:
            raise ConfigError(f"unknown predicate {name!r}")


def check_conjecture(c: Conjecture, corpus: Sequence[Graph],
                     invariants: dict[str, Callable[[Graph], int]],
                     table: FeatureTable,
                     ) -> tuple[Optional[tuple[str, Fraction, Fraction]], int]:
    """Check the conjecture on every graph of ``corpus`` that satisfies its
    hypothesis.

    ``table`` holds the predicate columns over ``corpus``, one row per graph
    with the labels :func:`corpus_labels` gives, and the hypothesis's
    support is read off it. The supporting graphs are walked in corpus
    order, and the target and other invariant are solved on each of them
    alone. Returns ``(counterexample, touches)``. The counterexample is the
    first supporting graph violating the inequality, as (label, lhs value,
    rhs value), or ``None``; the walk stops there. ``touches`` counts the
    supporting graphs walked that attain equality. Graphs on which an
    involved invariant is undefined are skipped, not counted as violations.
    Raises :class:`ConfigError` when the conjecture names a column that
    ``invariants`` or the table lacks (see :func:`check_names`), or when the
    table's labels are not the corpus's, before any graph is looked at.
    """
    check_names(c, invariants, table.boolean)
    if table.labels != corpus_labels(corpus):
        raise ConfigError("the predicate table's rows are not the corpus graphs")

    target, other, bound = invariants[c.target], invariants[c.other], c.bound
    touches = 0
    for i in mask_rows(table.support(c.hypothesis)):
        g = corpus[i]
        try:
            y = target(g)
            x = other(g)
        except UndefinedInvariantError:
            continue
        # one point of one row: each mask is 1 or 0
        violated, touched = bound.compare(((x, y, 1),))
        if violated:
            return (table.labels[i], Fraction(y), bound.evaluate(x)), touches
        touches += touched
    return None, touches


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

    Raises :class:`ConfigError` when the record is not a JSON object or not
    a well-formed one (a missing field, a zero denominator, an unknown
    direction, a name field that is not a list of names, a slope or
    intercept that is not a pair of integers, a count that is not an
    integer, ...). JSON ``true`` and ``false`` are not integers here.
    """
    if not isinstance(record, dict):
        raise ConfigError("record is not a JSON object")
    try:
        # each pair is reduced here, once, so equal bounds compare equal
        bound = SharpBoundingFunction(
            Fraction(*_field(record, "slope", "pair")).as_integer_ratio(),
            Fraction(*_field(record, "intercept", "pair")).as_integer_ratio(),
            record["direction"],
        )
        return Conjecture(
            target=record["target"],
            other=record["other"],
            hypothesis=Hypothesis(_field(record, "hypothesis", "names")),
            bound=bound,
            touch_set=frozenset(_field(record, "touch_set", "names")),
            touch_number=_field(record, "touch_number", "int"),
            support_size=_field(record, "support_size", "int"),
        )
    except KeyError as exc:
        raise ConfigError(f"record lacks the {exc.args[0]!r} field") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed record: {exc}") from None


# each checked record field kind: the phrase its error uses, and its test;
# a bare string would otherwise be taken apart into its characters, and
# bool is a subclass of int, so JSON true would otherwise count as 1
_FIELD_KINDS = {
    "names": ("a list of names", lambda v: isinstance(v, list)
              and all(isinstance(n, str) for n in v)),
    "pair": ("a pair of integers", lambda v: isinstance(v, list)
             and len(v) == 2 and all(type(n) is int for n in v)),
    "int": ("an integer", lambda v: type(v) is int),
}


def _field(record: dict, name: str, kind: str):
    value = record[name]
    phrase, valid = _FIELD_KINDS[kind]
    if not valid(value):
        raise ConfigError(f"the {name!r} field must be {phrase}, got {value!r}")
    return value


def export_text(conjectures: Iterable[Conjecture]) -> str:
    """One JSON record per line, each line ending in a newline."""
    return "".join(json.dumps(conjecture_to_record(c), ensure_ascii=False)
                   + "\n" for c in conjectures)


def write_export(conjectures: Iterable[Conjecture], path: str | Path) -> str:
    """Write :func:`export_text` atomically (see :func:`write_text_atomic`)
    and return the text written."""
    text = export_text(conjectures)
    write_text_atomic(path, text)
    return text


def read_numbered_export(path: str | Path) -> list[tuple[int, object]]:
    """(line number, raw record) for every non-blank line, numbered from 1.
    Lines end at a line feed alone, the line end :func:`write_export`
    writes, as a label in a record may hold any other line separator.

    A line that is not JSON, or that Python cannot read as JSON (an integer
    of more digits than ``int`` converts from a string, an array nested
    deeper than the recursion limit), raises ConfigError at path:line, and
    a file that is not UTF-8 text raises ConfigError naming the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read export {path}: not UTF-8 text") from None
    records = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                records.append((lineno, json.loads(line)))
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError's msg leaves out the position
                raise ConfigError(f"{path}:{lineno}: "
                                  f"{getattr(exc, 'msg', exc)}") from None
    return records
