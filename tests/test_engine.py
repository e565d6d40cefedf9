import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpbounds import (
    ConfigError,
    Conjecture,
    EngineConfig,
    FeatureTable,
    FitResult,
    Hypothesis,
    SharpBoundingFunction,
    build_table,
    check_conjecture,
    complete,
    conjecture_from_record,
    conjecture_to_record,
    cycle,
    dalmatian_filter,
    engine,
    fit_linear_bound,
    fitting,
    generality_filter,
    mask_rows,
    path,
    petersen,
    prism,
    read_graph6_file,
    read_numbered_export,
    render_conjecture,
    run_pipeline,
    sort_conjectures,
    standard_invariants,
    standard_predicates,
    star,
    write_export,
)

from conftest import DATA, random_graph


def make_conjecture(target="independence_number", other="matching_number",
                    direction="upper", hypothesis=(), slope=1, intercept=0,
                    touch_set=("a",), support_size=5):
    return Conjecture(
        target=target, other=other,
        hypothesis=Hypothesis(hypothesis),
        bound=SharpBoundingFunction(Fraction(slope).as_integer_ratio(),
                                    Fraction(intercept).as_integer_ratio(),
                                    direction),
        touch_set=frozenset(touch_set), touch_number=len(set(touch_set)),
        support_size=support_size)


def make_record(target="independence_number", other="matching_number",
                direction="upper", hypothesis=(), slope=1, intercept=0,
                touched=0b1, support=0b11111):
    """A fit record stated under ``hypothesis``; ``touched`` and
    ``support`` are row masks."""
    h = Hypothesis(hypothesis)
    bound = SharpBoundingFunction(Fraction(slope).as_integer_ratio(),
                                  Fraction(intercept).as_integer_ratio(),
                                  direction)
    return engine.FitRecord(target, other, support, FitResult(bound, touched),
                            h)


def general(records):
    # the generality survivors among records of any (target, other)
    kept = generality_filter([((r.target, r.other, r.bound), r.support)
                              for r in records])
    return [records[i] for i in kept]


def same_records(got, want):
    # FitRecord is unhashable and compares by field; the filters must hand
    # back the very records they were given
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_elides_unit_slope_and_zero_intercept():
    c = make_conjecture()
    assert render_conjecture(c) == "α(G) ≤ μ(G)"


def test_render_hypothesis_and_integer_slope():
    c = make_conjecture(target="zero_forcing_number", other="domination_number",
                        hypothesis=("connected", "cubic"), slope=2)
    assert render_conjecture(c) == \
        "If G is a connected and cubic graph, then Z(G) ≤ 2·γ(G)"


def test_render_fraction_slope_lower_and_constant():
    c = make_conjecture(target="zero_forcing_number",
                        other="total_domination_number",
                        slope=Fraction(3, 2))
    assert render_conjecture(c) == "Z(G) ≤ (3/2)·γ_t(G)"
    c = make_conjecture(direction="lower", slope=1, intercept=-2)
    assert render_conjecture(c) == "α(G) ≥ μ(G) - 2"
    c = make_conjecture(slope=0, intercept=Fraction(7, 3))
    assert render_conjecture(c) == "α(G) ≤ 7/3"


def test_direction_follows_the_bound():
    # the direction is the bound's own, so a conjecture cannot state one
    # direction and be checked in the other
    lower = SharpBoundingFunction((0, 1), (100, 1), "lower")
    fields = dict(target="independence_number", other="order",
                  hypothesis=Hypothesis(), bound=lower,
                  touch_set=frozenset({"a"}), touch_number=1, support_size=1)
    c = Conjecture(**fields)
    assert c.direction == "lower"
    assert render_conjecture(c) == "α(G) ≥ 100"
    assert conjecture_to_record(c)["direction"] == "lower"
    corpus = [complete(3)]
    assert check_conjecture(c, corpus, standard_invariants(),
                            build_table(corpus, {}, standard_predicates())
                            )[0][0] == "K3"
    with pytest.raises(TypeError):
        Conjecture(direction="upper", **fields)

    table = build_table(cubic_like_corpus())
    config = EngineConfig(targets=("independence_number",), min_support=1,
                          max_hypothesis_size=0)
    records = engine.fit_records(table, config)
    assert {r.direction for r in records} == {"upper", "lower"}
    assert all(r.direction == r.fit.bound.direction for r in records)
    assert all(c.direction == c.bound.direction
               for c in run_pipeline(table, replace(config, filters=())))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def cubic_like_corpus():
    return [complete(4), prism(3), cycle(5), cycle(6), path(5), petersen(),
            star(3), complete(5), complete(6), cycle(4)]


def test_generate_single_row_table():
    table = build_table([complete(4)])
    config = EngineConfig(targets=("independence_number",),
                          directions=("upper",), min_support=1,
                          max_hypothesis_size=0)
    out = engine.fit_records(table, config)
    assert out
    for r in out:
        assert r.touch_number == 1
        assert r.fit.touched == r.support == 0b1  # the row of K4


def test_generate_respects_min_support():
    table = build_table(cubic_like_corpus())
    config = EngineConfig(targets=("independence_number",),
                          directions=("upper",), min_support=4)
    out = engine.fit_records(table, config)
    assert out
    hypotheses = [Hypothesis(key) for key in
                  engine._hypothesis_keys(table, config.max_hypothesis_size)]
    for r in out:
        # named by the smallest hypothesis with its support
        assert r.hypothesis == min(
            (h for h in hypotheses if table.support(h) == r.support),
            key=lambda h: h.key)
        points = table.select_rows(r.support, r.other, r.target)
        assert sum(rows.bit_count() for _, _, rows in points) >= 4
    # cubic selects two graphs only, below the support gate, so no record
    # has the support of a hypothesis naming it
    cubic = {table.support(h) for h in hypotheses if "cubic" in h.predicates}
    assert cubic and not cubic & {r.support for r in out}


def test_generate_validates_target():
    table = build_table([complete(4), cycle(5)])
    config = EngineConfig(targets=("connected",), min_support=1)
    with pytest.raises(ConfigError):
        engine.fit_records(table, config)


def undercutting_fit(points, direction, skip=None):
    # a fitter regression: the flat line one below the largest y, made
    # whatever the skip hook would say
    top = max(y for _, y, _ in points)
    touched = 0
    for _, y, rows in points:
        if y == top - 1:
            touched |= rows
    return FitResult(SharpBoundingFunction((0, 1), (top - 1, 1), direction),
                     touched)


def test_generate_self_check_names_violated_row(monkeypatch):
    # a fitter regression that undercuts the largest y by one must be caught
    monkeypatch.setattr(engine, "fit_linear_bound", undercutting_fit)
    table = build_table([complete(3), complete(4), cycle(5)])
    config = EngineConfig(targets=("order",), directions=("upper",),
                          max_hypothesis_size=0, min_support=1)
    with pytest.raises(AssertionError, match="violated on row C5: "):
        engine.fit_records(table, config)


def test_generate_self_check_names_lowest_violated_row(monkeypatch):
    # rows a and c both lie above the undercut line; c's point comes first
    # in x order, but the message must name a, the lowest violating row
    monkeypatch.setattr(engine, "fit_linear_bound", undercutting_fit)
    table = FeatureTable(
        labels=tuple("abcde"),
        numeric={"y": (9, 0, 9, 1, 8), "x": (5, 1, 3, 2, 4)},
        boolean={"all": (True,) * 5})
    assert [rows for _, _, rows in table.select_rows(0b11111, "x", "y")] == \
        [0b00010, 0b01000, 0b00100, 0b10000, 0b00001]
    config = EngineConfig(targets=("y",), directions=("upper",),
                          max_hypothesis_size=0, min_support=1)
    with pytest.raises(AssertionError, match=r"violated on row a: y\(G\) ≤ 8$"):
        engine.fit_records(table, config)


def test_generate_self_check_names_a_missing_touched_row(monkeypatch):
    # a fitter regression that drops the highest touched row from the mask
    # that ranks, filters and exports the record must be caught too
    def dropping_fit(points, direction, skip=None):
        fit = fit_linear_bound(points, direction, skip)
        return fit and FitResult(fit.bound,
                         fit.touched ^ 1 << fit.touched.bit_length() - 1)

    monkeypatch.setattr(engine, "fit_linear_bound", dropping_fit)
    table = FeatureTable(
        labels=tuple("abcd"),
        numeric={"y": (1, 2, 3, 1), "x": (1, 2, 3, 4)},
        boolean={"all": (True,) * 4})
    assert fit_linear_bound(table.select_rows(0b1111, "x", "y"),
                            "upper").touched == 0b0111
    config = EngineConfig(targets=("y",), directions=("upper",),
                          max_hypothesis_size=0, min_support=1)
    with pytest.raises(AssertionError,
                       match=r"touched differently on row c: y\(G\) ≤ x\(G\)$"):
        engine.fit_records(table, config)


def test_generate_fits_once_per_distinct_support(monkeypatch):
    # "always" holds on every row, so it shares the empty hypothesis's
    # support; "even" and "always and even" share a second one
    table = FeatureTable(
        labels=("a", "b", "c", "d", "e", "f"),
        numeric={"x": (1, 2, 3, 4, 5, 6), "y": (2, 3, 3, 5, 4, 7)},
        boolean={"always": (True,) * 6,
                 "even": (False, True, False, True, False, True)})
    calls = []

    def counting_fit(points, direction, skip=None):
        calls.append(tuple(points))
        return fit_linear_bound(points, direction, skip)

    monkeypatch.setattr(engine, "fit_linear_bound", counting_fit)
    # every record of the sweep, not the generality survivors only
    config = EngineConfig(targets=("y",), directions=("upper",),
                          max_hypothesis_size=2, min_support=3, filters=())
    out = engine.fit_records(table, config)
    assert len(calls) == 2 == len(set(calls))
    assert [r.support for r in out] == [0b111111, 0b101010]
    keys = list(engine._hypothesis_keys(table, 2))
    assert [[key for key in keys if table.support(Hypothesis(key)) == r.support]
            for r in out] == [[(), ("always",)], [("even",), ("always", "even")]]
    # a record is stated under its lexicographically smallest key
    assert [r.hypothesis.key for r in out] == [(), ("always", "even")]

    (plain,) = engine.fit_records(table, replace(config, max_hypothesis_size=0))
    assert len(calls) == 3
    assert out[0] == plain
    assert out[1].support_size == 3
    assert out[1].fit.touched == 0b101010  # rows b, d and f


def test_generate_fits_each_selection_once(monkeypatch):
    # u and v agree on the "even" rows only, like domination and independent
    # domination number on many graphs: each still gets its own fit
    table = FeatureTable(
        labels=tuple("abcdefgh"),
        numeric={"y": (2, 3, 3, 5, 4, 7, 6, 6),
                 "u": (1, 2, 3, 4, 5, 6, 7, 8),
                 "v": (1, 2, 0, 4, 9, 6, 1, 8)},
        boolean={"all": (True,) * 8, "even": (False, True) * 4})
    config = EngineConfig(targets=("y",), max_hypothesis_size=1, min_support=3,
                          filters=())
    calls = []

    def counting_fit(points, direction, skip=None):
        calls.append((direction, points))
        return fit_linear_bound(points, direction, skip)

    monkeypatch.setattr(engine, "fit_linear_bound", counting_fit)
    out = engine.fit_records(table, config)

    # one fit per (direction, other, distinct support)
    wanted = [(d, table.select_rows(table.support(Hypothesis(h)), other, "y"))
              for d in ("lower", "upper") for other in "uv"
              for h in ((), ("even",))]
    assert len(set(wanted)) == 6
    assert sorted(calls) == sorted(wanted)

    # each record holds its own fresh fit; "all" holds on every row, so it
    # shares the empty hypothesis's record
    assert [(r.direction, r.other, r.support, r.hypothesis.key)
            for r in out] == \
        [(d, other, support, h) for d in ("lower", "upper") for other in "uv"
         for support, h in ((0b11111111, ()), (0b10101010, ("even",)))]
    for r in out:
        assert r.support == table.support(r.hypothesis)
        fit = fit_linear_bound(table.select_rows(r.support, r.other, "y"),
                               r.direction)
        assert r.fit == fit
        assert r.touch_number == fit.touch_number
        assert r.support_size == r.support.bit_count()
    even = [r for r in out if r.hypothesis.key == ("even",)]
    assert even[0].bound == even[1].bound and even[0].other != even[1].other


def test_traced_entry_points_stay_patchable(monkeypatch):
    # perfbench/spans.py wraps FeatureTable.support and .select_rows through
    # the class dict, and fit_linear_bound and the ranking stages through
    # engine's own bindings; if any of them moved, the traced sweep would
    # silently count nothing for it
    counts = {}

    def count(owner, name, original):
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("support", "select_rows"):
        count(FeatureTable, name, vars(FeatureTable)[name])
    assert engine.fit_linear_bound is fitting.fit_linear_bound
    count(engine, "fit_linear_bound", fitting.fit_linear_bound)
    stages = ("sort_conjectures", "dalmatian_filter", "truncate_per_group",
              "render_conjecture")
    for name in stages:
        count(engine, name, getattr(engine, name))
    table = build_table(cubic_like_corpus())
    config = EngineConfig(targets=("independence_number",), min_support=3,
                          filters=("generality", "dalmatian"))
    run_pipeline(table, config)
    assert all(n > 0 for n in counts.values()), counts


def test_rows_selected_only_for_supports_with_enough_rows(monkeypatch):
    # "even" holds on four rows but u is missing on two of them, so (u, even)
    # holds two rows with both values: below min_support, never selected
    table = FeatureTable(
        labels=tuple("abcdefgh"),
        numeric={"y": (2, 3, 3, 5, None, 7, 6, 6),
                 "u": (1, None, 3, 4, 5, None, None, 8),
                 "v": (1, 2, 0, 4, 9, 6, 1, 8)},
        boolean={"even": (False, True) * 4, "low": (True,) * 4 + (False,) * 4})
    original = FeatureTable.select_rows

    def rows_of(support, other):
        return sum(rows.bit_count()
                   for _, _, rows in original(table, support, other, "y"))

    selected = []

    def recording(self, support, x, y):
        selected.append((x, support))
        return original(self, support, x, y)

    monkeypatch.setattr(FeatureTable, "select_rows", recording)
    records = engine.fit_records(
        table, EngineConfig(targets=("y",), max_hypothesis_size=2, min_support=3))

    pairs = {(other, table.support(Hypothesis(key))) for other in "uv"
             for key in engine._hypothesis_keys(table, 2)}
    wanted = {(other, s) for other, s in pairs if rows_of(s, other) >= 3}
    assert ("u", table.support(Hypothesis({"even"}))) in pairs - wanted
    # every pair with enough rows is selected once and fitted; no other is
    assert sorted(selected) == sorted(wanted)
    assert {(r.other, r.support) for r in records} == wanted


def test_sweep_builds_no_checked_bound_and_records_only_for_survivors(
        monkeypatch):
    # the fitter makes its reduced pairs itself and skips the public
    # constructors' checks; with the generality filter on, the sweep builds
    # a record for each survivor only; and every (target, direction, other,
    # support) is fitted exactly once. The Dalmatian filter and a top_k that
    # some group reaches would skip fits
    # (test_dalmatian_sweep_skips_only_covered_fits and
    # test_top_k_sweep_skips_only_fits_below_the_kth_class), so both stay
    # off here
    table = build_table(read_graph6_file(DATA / "mixed_graphs.g6"))
    config = EngineConfig(targets=tuple(standard_invariants()),
                          max_hypothesis_size=3, filters=("generality",),
                          top_k=10**6)
    unfiltered = engine.fit_records(table, replace(config, filters=()))
    survivors = general(unfiltered)
    assert len(survivors) < len(unfiltered)

    counts = {"bounds": 0, "fits": 0, "records": 0}

    def counted(kind, original):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)
        return wrapper

    bound_new = vars(SharpBoundingFunction)["__new__"]
    monkeypatch.setattr(SharpBoundingFunction, "__new__",
                        staticmethod(counted("bounds", bound_new)))
    monkeypatch.setattr(FitResult, "__new__", staticmethod(
        counted("fits", vars(FitResult)["__new__"])))
    monkeypatch.setattr(engine.FitRecord, "__init__",
                        counted("records", engine.FitRecord.__init__))
    calls = []
    out = []
    for target in sorted(config.targets):
        def recording_fit(points, direction, skip=None, target=target):
            calls.append((target, direction, points))
            return fit_linear_bound(points, direction, skip)

        monkeypatch.setattr(engine, "fit_linear_bound", recording_fit)
        out += engine.fit_records(table, replace(config, targets=(target,)))
    assert [(r.target, r.other, r.direction, r.support) for r in out] == \
        [(r.target, r.other, r.direction, r.support) for r in survivors]
    assert counts == {"bounds": 0, "fits": 0, "records": len(survivors)}

    # one fit per (target, direction, other, support): one per record of
    # the unfiltered sweep
    wanted = [(r.target, r.direction,
               table.select_rows(r.support, r.other, r.target))
              for r in unfiltered]
    assert sorted(calls) == sorted(wanted)


def sweep_fits(table, config, monkeypatch):
    # (target, direction, selected points) -> fit, for every fit the sweep
    # makes (a fit its skip hook stops is not made), and the records, one
    # target at a time
    fits, records = {}, []
    for target in sorted(config.targets):
        def recording_fit(points, direction, skip=None, target=target):
            fit = fit_linear_bound(points, direction, skip)
            if fit is not None:
                fits[target, direction, points] = fit
            return fit

        monkeypatch.setattr(engine, "fit_linear_bound", recording_fit)
        records += engine.fit_records(table, replace(config, targets=(target,)))
    monkeypatch.undo()
    return fits, records


@pytest.mark.parametrize("corpus", ["cubic_connected_4_10.g6", "mixed_graphs.g6"])
def test_dalmatian_sweep_skips_only_covered_fits(corpus, monkeypatch):
    # every (target, direction, selection) that the uncut generality-only
    # sweep fits and the sweep with both filters skips touches only rows
    # touched by fits of the same (target, direction) with strictly more
    # touches; the records that remain keep the sweep's order, whatever the
    # order in which selections are visited
    table = build_table(read_graph6_file(DATA / corpus))
    config = EngineConfig(targets=tuple(standard_invariants()),
                          max_hypothesis_size=3, filters=("generality",),
                          top_k=10**6)
    every, _ = sweep_fits(table, config, monkeypatch)
    kept, records = sweep_fits(
        table, replace(config, filters=("generality", "dalmatian")), monkeypatch)
    assert kept.keys() < every.keys()

    # (target, direction) -> touch number -> union of the touched rows
    touched = {}
    for (target, direction, _), fit in kept.items():
        by_count = touched.setdefault((target, direction), {})
        n = fit.touch_number
        by_count[n] = by_count.get(n, 0) | fit.touched
    for (target, direction, points), fit in every.items():
        if (target, direction, points) not in kept:
            covered = 0
            for n, rows in touched[target, direction].items():
                if n > fit.touch_number:
                    covered |= rows
            assert fit.touched & ~covered == 0, (target, direction, points)

    # by target, direction, other property and the first hypothesis of the
    # support, which the enumeration orders by size, then by name
    first = {}
    for key in engine._hypothesis_keys(table, config.max_hypothesis_size):
        first.setdefault(table.support(Hypothesis(key)), key)
    order = [(r.target, r.direction, r.other, len(first[r.support]),
              first[r.support]) for r in records]
    assert order == sorted(set(order))


@pytest.mark.parametrize("corpus", ["cubic_connected_4_10.g6", "mixed_graphs.g6"])
@pytest.mark.parametrize("top_k", [1, 3])
def test_top_k_sweep_skips_only_fits_below_the_kth_class(corpus, top_k,
                                                          monkeypatch):
    # every (target, direction, selection) that the uncut generality-only
    # sweep fits and the sweep cut to top_k skips touches fewer rows than
    # the top_k-th largest of the most touches of each (other property,
    # bound) class of its (target, direction) among the cut sweep's
    # records, and the two sweeps' records with at least that many touches
    # are the same
    table = build_table(read_graph6_file(DATA / corpus))
    config = EngineConfig(targets=tuple(standard_invariants()),
                          max_hypothesis_size=3, filters=("generality",),
                          top_k=10**6)
    every, uncut = sweep_fits(table, config, monkeypatch)
    kept, records = sweep_fits(table, replace(config, top_k=top_k),
                               monkeypatch)
    assert kept.keys() < every.keys()

    # (target, direction) -> (other, bound) -> most touches of the class
    best = {}
    for r in records:
        classes = best.setdefault((r.target, r.direction), {})
        key = (r.other, r.bound)
        classes[key] = max(classes.get(key, 0), r.touch_number)
    kth = {group: sorted(classes.values(), reverse=True)[top_k - 1]
           for group, classes in best.items() if len(classes) >= top_k}
    for (target, direction, points), fit in every.items():
        if (target, direction, points) not in kept:
            assert fit.touch_number < kth[target, direction], \
                (target, direction, points)

    def listable(records):
        return [r for r in records
                if r.touch_number >= kth.get((r.target, r.direction), 0)]

    assert listable(records) == listable(uncut)


def count_sweep(table, config, monkeypatch):
    # the fitter's calls and the fits it made, and the supports and row
    # selections one sweep takes
    counts = dict.fromkeys(("calls", "fits", "support", "select_rows"), 0)

    def counting_fit(points, direction, skip=None):
        counts["calls"] += 1
        fit = fitting.fit_linear_bound(points, direction, skip)
        counts["fits"] += fit is not None
        return fit

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "fit_linear_bound", counting_fit)
    for name in ("support", "select_rows"):
        monkeypatch.setattr(FeatureTable, name,
                            counted(name, vars(FeatureTable)[name]))
    engine.fit_records(table, config)
    monkeypatch.undo()
    return counts


def test_dalmatian_sweep_fits_and_selects_less(monkeypatch):
    # on the mixed corpus, the Dalmatian filter skips five in six fits and
    # many row selections; supports are read off the same predicate masks
    table = build_table(read_graph6_file(DATA / "mixed_graphs.g6"))
    config = EngineConfig(targets=tuple(standard_invariants()),
                          max_hypothesis_size=3, filters=("generality",),
                          top_k=10**6)
    general = count_sweep(table, config, monkeypatch)
    both = count_sweep(
        table, replace(config, filters=("generality", "dalmatian")),
        monkeypatch)
    assert both["support"] == general["support"] == len(table.boolean) + 1
    assert general["fits"] == general["calls"] == 4752
    assert both["fits"] <= 627 and 6 * both["fits"] < general["fits"]
    assert both["fits"] < both["calls"] < general["calls"]
    assert both["select_rows"] < general["select_rows"]


def test_top_k_sweep_fits_less(monkeypatch):
    # the CLI's default run (generality only, hypotheses of up to two
    # predicates, top 10) on the mixed corpus makes under half the fits of
    # the uncut sweep; a cut of 1 makes fewer still
    table = build_table(read_graph6_file(DATA / "mixed_graphs.g6"))
    config = EngineConfig(targets=tuple(standard_invariants()))
    uncut = count_sweep(table, replace(config, top_k=10**6), monkeypatch)
    default = count_sweep(table, config, monkeypatch)
    first = count_sweep(table, replace(config, top_k=1), monkeypatch)
    assert uncut["fits"] == uncut["calls"] == 3696
    assert default["fits"] <= 1502 and 2 * default["fits"] < uncut["fits"]
    assert first["fits"] < default["fits"]
    assert default["select_rows"] < uncut["select_rows"]


N_SKIP_ROWS = 5


@st.composite
def skip_fits(draw):
    # (other property, fit) pairs over N_SKIP_ROWS rows, from few classes
    other = draw(st.sampled_from("abc"))
    slope, intercept = draw(st.integers(-1, 1)), draw(st.integers(0, 2))
    touched = draw(st.integers(1, (1 << N_SKIP_ROWS) - 1))
    bound = SharpBoundingFunction((slope, 1), (intercept, 1), "upper")
    return other, FitResult(bound, touched)


@settings(max_examples=200, deadline=None)
@given(st.lists(skip_fits(), max_size=8), st.integers(1, 4))
def test_skip_tests_are_subset_closed(fits, top_k):
    # after any sequence of kept fits, both skip tests skip every non-empty
    # subset of a row set they skip, with any smaller touch count, so the
    # sweep may ask about a selection's rows and count before the fitter
    # asks about the touch-maximal rows and touch number inside them
    for skip in (engine._CoverSkip(N_SKIP_ROWS),
                 engine._TopKSkip(N_SKIP_ROWS, top_k)):
        for other, fit in fits:
            skip.add(other, fit)
        name = type(skip).__name__
        for r in range(1, 1 << N_SKIP_ROWS):
            for t in range(1, N_SKIP_ROWS + 1):
                if skip.covered(r, t):
                    # every pair of a smaller set or count follows by steps
                    assert t == 1 or skip.covered(r, t - 1), (name, r, t)
                    s = r
                    while s:
                        assert skip.covered(s, t), (name, r, t, s)
                        s = (s - 1) & r


@pytest.mark.parametrize("corpus", ["cubic_connected_4_10.g6", "mixed_graphs.g6"])
def test_pipeline_builds_only_the_listed_conjectures(corpus, monkeypatch):
    # ranking and both filters run on fit records; a conjecture is built
    # for each listed bound and for nothing else
    table = build_table(read_graph6_file(DATA / corpus))
    built = 0
    check = Conjecture.__post_init__

    def counting_check(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(Conjecture, "__post_init__", counting_check)
    out = run_pipeline(table, EngineConfig(
        targets=tuple(standard_invariants()), max_hypothesis_size=3,
        filters=("generality", "dalmatian")))
    assert built == len(out) > 0


def test_generated_conjectures_hold_and_touch(random_suite):
    corpus = list(random_suite)[:14]
    table = build_table(corpus)
    config = EngineConfig(targets=("independence_number", "zero_forcing_number"),
                          min_support=3)
    invariants = standard_invariants()
    predicate_table = build_table(corpus, {}, standard_predicates())
    # no filter and no cut: one conjecture per record
    out = run_pipeline(table, replace(config, filters=(), top_k=10**6))
    assert out
    for c in out:
        assert c.touch_number >= 1
        assert check_conjecture(c, corpus, invariants, predicate_table) == \
            (None, c.touch_number)
        support_labels = {table.labels[i]
                          for i in mask_rows(table.support(c.hypothesis))}
        assert c.touch_set <= support_labels
        assert c.support_size == len(support_labels)


def test_pipeline_deterministic(random_suite):
    corpus = list(random_suite)[:12]
    table = build_table(corpus)
    config = EngineConfig(targets=("matching_number",), min_support=3,
                          filters=("generality", "dalmatian"))
    first = run_pipeline(table, config)
    second = run_pipeline(build_table(corpus), config)
    assert [c.statement for c in first] == [c.statement for c in second]
    assert first == second


# ---------------------------------------------------------------------------
# Generality filter
# ---------------------------------------------------------------------------

def record_on(table, hypothesis, **fields):
    # a record whose support is the hypothesis's support in ``table``
    return make_record(hypothesis=hypothesis,
                       support=table.support(Hypothesis(hypothesis)), **fields)


def test_generality_removes_nested_support():
    corpus = [complete(4), prism(3), cycle(6), path(5), petersen()]
    table = build_table(corpus)
    broad = record_on(table, ("connected",), slope=2, intercept=0,
                      touched=0b00001)
    narrow = record_on(table, ("connected", "bipartite"), slope=2,
                       intercept=0, touched=0b00100)
    assert broad.support_size == 5 and narrow.support_size == 2
    kept = general([narrow, broad])
    assert same_records(kept, [broad])


def test_generality_keeps_different_bounds():
    corpus = [complete(4), prism(3), cycle(6), path(5)]
    table = build_table(corpus)
    a = record_on(table, ("connected",), slope=2, intercept=0)
    b = record_on(table, ("connected", "bipartite"), slope=2, intercept=1)
    assert same_records(general([a, b]), [a, b])
    single = [make_record()]
    assert same_records(general(single), single)


def test_generality_returns_kept_positions_in_input_order():
    # a bound is any hashable identity; a strict subset of an identical
    # bound's support is dropped, the same support under another bound kept
    pairs = [("b", 0b011), ("a", 0b001), ("b", 0b001), ("b", 0b111),
             ("a", 0b110)]
    assert generality_filter(pairs) == [1, 3, 4]
    assert generality_filter([]) == []


def test_generality_rejects_equal_supports_in_one_bound_group():
    # the sweep yields one record per support, so a bound group is a set of
    # distinct supports; two records with one bound and one support are a
    # caller's error, whatever hypotheses they are stated under
    corpus = [complete(4), prism(3)]  # both connected and cubic
    table = build_table(corpus)
    plain = record_on(table, ("cubic",))
    conj = record_on(table, ("connected", "cubic"))
    empty = record_on(table, ())
    assert plain.support == conj.support == empty.support == 0b11
    for pair in ([conj, plain], [empty, conj], [plain, plain]):
        with pytest.raises(ValueError, match="share a bound and a support"):
            general(pair)
    # the same supports under different bounds are different groups
    other = record_on(table, ("cubic",), intercept=1)
    assert same_records(general([plain, other]), [plain, other])


# ---------------------------------------------------------------------------
# Dalmatian filter
# ---------------------------------------------------------------------------

def test_dalmatian_rejects_repeat_touch_set():
    a = make_record(touched=0b011)
    b = make_record(touched=0b011, slope=2)
    assert same_records(dalmatian_filter([a, b]), [a])


def test_dalmatian_accepts_new_objects():
    a = make_record(touched=0b001)
    b = make_record(touched=0b010, slope=2)
    c = make_record(touched=0b110, slope=3)
    assert same_records(dalmatian_filter([a, b, c]), [a, b, c])


def test_dalmatian_groups_by_target_and_direction():
    a = make_record(touched=0b001)
    same_touch_other_target = make_record(target="zero_forcing_number",
                                          touched=0b001)
    same_touch_other_direction = make_record(direction="lower", touched=0b001)
    assert same_records(
        dalmatian_filter([a, same_touch_other_target,
                          same_touch_other_direction]),
        [a, same_touch_other_target, same_touch_other_direction])


# ---------------------------------------------------------------------------
# Sorting and truncation
# ---------------------------------------------------------------------------

def rows(n):
    # the mask of the first n rows
    return (1 << n) - 1


def test_sort_by_touch_then_support():
    a = make_record(touched=rows(3), support=rows(4))
    b = make_record(touched=rows(5), slope=2, support=rows(5))
    c = make_record(touched=rows(1), support=rows(9))
    assert same_records(sort_conjectures([a, b, c]), [b, a, c])
    tie1 = make_record(touched=rows(2), support=rows(10))
    tie2 = make_record(touched=rows(2), slope=2, support=rows(40))
    assert same_records(sort_conjectures([tie1, tie2]), [tie2, tie1])
    # equal touch number and support: the statement decides
    plain = make_record(touched=rows(2), support=rows(10), slope=2)
    hyp = make_record(touched=rows(2), support=rows(10), hypothesis=("cubic",))
    assert hyp.statement < plain.statement  # "I" sorts before "α"
    assert same_records(sort_conjectures([plain, hyp]), [hyp, plain])
    assert sort_conjectures([]) == []


def test_pipeline_truncates_per_target_direction(random_suite):
    corpus = list(random_suite)[:12]
    table = build_table(corpus)
    config = EngineConfig(targets=("independence_number", "matching_number"),
                          min_support=3, top_k=1)
    out = run_pipeline(table, config)
    groups = {(c.target, c.direction) for c in out}
    assert len(out) == len(groups)


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------

def test_counterexample_found_for_false_claim():
    claim = make_conjecture(other="min_degree", hypothesis=("connected",))
    corpus = [complete(4), star(3)]
    got = check_conjecture(claim, corpus, standard_invariants(),
                           build_table(corpus, {}, standard_predicates()))[0]
    assert got == ("K1,3", 3, 1)


def test_counterexample_vacuous_hypothesis():
    claim = make_conjecture(hypothesis=("cubic",), other="min_degree")
    corpus = [cycle(5), path(4)]
    got = check_conjecture(claim, corpus, standard_invariants(),
                           build_table(corpus, {}, standard_predicates()))[0]
    assert got is None


def test_counterexample_skips_undefined_rows():
    claim = make_conjecture(target="total_domination_number",
                            other="order", slope=0, intercept=0)
    # K1 satisfies the empty hypothesis but has no total domination number;
    # it must be skipped, not reported
    corpus = [complete(1)]
    got = check_conjecture(claim, corpus, standard_invariants(),
                           build_table(corpus, {}, standard_predicates()))[0]
    assert got is None


def test_counterexample_unknown_column():
    claim = make_conjecture(other="chromatic_number")
    corpus = [complete(3)]
    with pytest.raises(ConfigError, match="unknown invariant 'chromatic_number'"):
        check_conjecture(claim, corpus, standard_invariants(),
                         build_table(corpus, {}, standard_predicates()))


def test_check_conjecture_needs_the_corpus_table():
    # a table over other graphs, or over the same graphs in another order,
    # would read the hypothesis off the wrong rows
    claim = make_conjecture(other="order")
    corpus = [complete(3), cycle(5)]
    invariants = standard_invariants()
    for rows in ([cycle(5), complete(3)], [complete(3)],
                 [complete(3), cycle(5), path(4)]):
        with pytest.raises(ConfigError, match="rows are not the corpus"):
            check_conjecture(claim, corpus, invariants,
                             build_table(rows, {}, standard_predicates()))
    no_predicates = build_table(corpus, {}, {})
    assert check_conjecture(claim, corpus, invariants, no_predicates)[0] is None
    # a predicate the table lacks is unknown to the check
    cubic = make_conjecture(other="order", hypothesis=("cubic",))
    with pytest.raises(ConfigError, match="unknown predicate 'cubic'"):
        check_conjecture(cubic, corpus, invariants, no_predicates)


# ---------------------------------------------------------------------------
# Export round trip
# ---------------------------------------------------------------------------

def test_export_round_trip(tmp_path):
    c = make_conjecture(hypothesis=("connected", "cubic"),
                        slope=Fraction(3, 2), intercept=Fraction(-1, 2),
                        touch_set=("C6", "K4"), support_size=7)
    record = conjecture_to_record(c)
    assert record["slope"] == [3, 2]
    assert record["intercept"] == [-1, 2]
    assert record["touch_set"] == ["C6", "K4"]
    assert conjecture_from_record(record) == c

    target = tmp_path / "conjectures.jsonl"
    write_export([c, make_conjecture()], target)
    loaded = [conjecture_from_record(r)
              for _, r in read_numbered_export(target)]
    assert loaded == [c, make_conjecture()]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_engine_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(targets=())
    with pytest.raises(ConfigError):
        EngineConfig(targets=("order",), directions=("diagonal",))
    with pytest.raises(ConfigError, match="at least one direction"):
        EngineConfig(targets=("order",), directions=())
    with pytest.raises(ConfigError):
        EngineConfig(targets=("order",), min_support=0)
    with pytest.raises(ConfigError):
        EngineConfig(targets=("order",), top_k=0)
    with pytest.raises(ConfigError):
        EngineConfig(targets=("order",), filters=("novelty",))
    with pytest.raises(ConfigError):
        EngineConfig(targets=("order",), max_hypothesis_size=-1)


@pytest.mark.parametrize("targets, directions, repeated", [
    (("order", "order"), ("upper",), "target 'order'"),
    (("order", "size", "order"), ("upper", "lower"), "target 'order'"),
    (("order",), ("upper", "lower", "upper"), "direction 'upper'"),
])
def test_engine_config_rejects_repeated_names(targets, directions, repeated):
    # a repeated target or direction would list every conjecture twice
    with pytest.raises(ConfigError, match=f"{repeated} is given more than once"):
        EngineConfig(targets=targets, directions=directions)


# ---------------------------------------------------------------------------
# Pipeline properties on random corpora
# ---------------------------------------------------------------------------

@st.composite
def small_corpus(draw):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    size = draw(st.integers(4, 10))
    return [random_graph(rng, rng.randint(2, 6), rng.choice([0.3, 0.5, 0.7]),
                         label=f"g{i}") for i in range(size)]


@settings(max_examples=25, deadline=None)
@given(small_corpus(), st.integers(1, 3))
def test_filter_properties_on_random_corpora(corpus, min_support):
    table = build_table(corpus)
    config = EngineConfig(targets=("independence_number",),
                          min_support=min_support, max_hypothesis_size=2)
    records = engine.fit_records(table, config)
    survivors = general(records)

    # no same-bound pair with nested or equal supports survives, and each
    # survivor is stated under a hypothesis with its support
    supports = {}
    for r in survivors:
        assert r.support == table.support(r.hypothesis)
        key = (r.target, r.other, r.bound)
        for other in supports.get(key, []):
            assert r.support & other not in (r.support, other)
        supports.setdefault(key, []).append(r.support)

    # dalmatian grows the union strictly with each acceptance
    accepted = dalmatian_filter(sort_conjectures(survivors))
    unions = {}
    for r in accepted:
        pool = unions.get((r.target, r.direction), 0)
        assert r.fit.touched & ~pool
        unions[r.target, r.direction] = pool | r.fit.touched

    # sorting is non-increasing in touch number
    ranked = sort_conjectures(records)
    touches = [r.touch_number for r in ranked]
    assert touches == sorted(touches, reverse=True)

    # filters only remove; records are compared by identity
    assert {id(r) for r in survivors} <= {id(r) for r in records}
    assert {id(r) for r in accepted} <= {id(r) for r in survivors}
