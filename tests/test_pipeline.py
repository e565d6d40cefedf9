"""Differential tests: ``run_pipeline`` against the conjecture-level reference.

``run_pipeline`` filters, ranks and truncates the sweep's fit records and
builds a conjecture only for each listed one. It must return exactly what
the reference in ``oracles`` returns: ``oracles.generate``'s list of one
conjecture per fit record, filtered over label sets, ranked and truncated,
for every filter choice and knob setting. No filter choice lists one
support's bound twice, and the Dalmatian filter alone lists what it lists
with the generality filter.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpbounds import (
    Conjecture,
    EngineConfig,
    FeatureTable,
    build_table,
    read_graph6_file,
    run_pipeline,
    standard_invariants,
)

import oracles
from conftest import DATA

FILTERS = [(), ("generality",), ("dalmatian",), ("generality", "dalmatian")]
TARGETS = tuple(standard_invariants())


def assert_same_conjectures(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b  # every field, the exact bound included
        assert a.statement == b.statement


@pytest.fixture(scope="module")
def corpus_tables():
    return {name: build_table(read_graph6_file(DATA / name))
            for name in ("cubic_connected_4_10.g6", "mixed_graphs.g6")}


@pytest.mark.parametrize("corpus", ["cubic_connected_4_10.g6", "mixed_graphs.g6"])
@pytest.mark.parametrize("min_support, max_size", [(5, 3), (1, 1), (12, 2)])
def test_pipeline_equals_filtered_generate_on_bundled_corpora(
        corpus_tables, corpus, min_support, max_size):
    table = corpus_tables[corpus]
    base = EngineConfig(targets=TARGETS, max_hypothesis_size=max_size,
                        min_support=min_support)
    raw = oracles.generate(table, base)
    assert raw
    for filters in FILTERS:
        for top_k in (1, 10**6):
            config = replace(base, filters=filters, top_k=top_k)
            assert_same_conjectures(run_pipeline(table, config),
                                    oracles.pipeline(raw, table, config))


@st.composite
def random_runs(draw):
    n = draw(st.integers(1, 10))
    cells = st.one_of(st.none(), st.integers(0, 4))
    numeric = {name: tuple(draw(st.lists(cells, min_size=n, max_size=n)))
               for name in ("x", "y", "z")}
    boolean = {name: tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
               for name in ("p", "q", "r")}
    table = FeatureTable(tuple(f"g{i}" for i in range(n)), numeric, boolean)
    targets = draw(st.lists(st.sampled_from(("x", "y", "z")), min_size=1,
                            max_size=3, unique=True))
    directions = draw(st.sampled_from([("upper",), ("lower",),
                                       ("upper", "lower")]))
    config = EngineConfig(
        targets=tuple(targets), directions=directions,
        max_hypothesis_size=draw(st.integers(0, 3)),
        min_support=draw(st.integers(1, 4)),
        filters=draw(st.sampled_from(FILTERS)),
        top_k=draw(st.integers(1, 4)))
    return table, config


@settings(max_examples=150, deadline=None)
@given(random_runs())
def test_pipeline_equals_filtered_generate_on_random_tables(run):
    table, config = run
    assert_same_conjectures(
        run_pipeline(table, config),
        oracles.pipeline(oracles.generate(table, config), table, config))


def assert_one_statement_per_support(table, config):
    # under every filter choice, no two listed conjectures share a (target,
    # other, bound, support), the bound holding the direction; and the
    # Dalmatian filter alone lists what it lists with the generality filter
    listed = {filters: run_pipeline(table, replace(config, filters=filters))
              for filters in FILTERS}
    for conjectures in listed.values():
        keys = [(c.target, c.other, c.bound, table.support(c.hypothesis))
                for c in conjectures]
        assert len(set(keys)) == len(keys)
    assert_same_conjectures(listed[("dalmatian",)],
                            listed[("generality", "dalmatian")])


@pytest.mark.parametrize("corpus", ["cubic_connected_4_10.g6", "mixed_graphs.g6"])
@pytest.mark.parametrize("max_size, top_k", [(2, 10), (3, 10**6)])
def test_one_statement_per_support_on_bundled_corpora(corpus_tables, corpus,
                                                      max_size, top_k):
    assert_one_statement_per_support(
        corpus_tables[corpus],
        EngineConfig(targets=TARGETS, max_hypothesis_size=max_size,
                     top_k=top_k))


@settings(max_examples=150, deadline=None)
@given(random_runs())
def test_one_statement_per_support_on_random_tables(run):
    assert_one_statement_per_support(*run)


def test_pipeline_builds_conjectures_only_for_survivors(corpus_tables,
                                                        monkeypatch):
    # on the census no support's bound is less general than another's, so
    # the mixed corpus, where the generality filter drops most records
    table = corpus_tables["mixed_graphs.g6"]
    config = EngineConfig(targets=TARGETS, max_hypothesis_size=3,
                          filters=("generality",), top_k=10**6)
    raw = oracles.generate(table, config)
    kept = oracles.generality_filter(raw, table)
    assert len(kept) < len(raw)

    built = 0
    check = Conjecture.__post_init__

    def counting_check(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(Conjecture, "__post_init__", counting_check)
    out = run_pipeline(table, config)
    assert out == oracles.rank(kept)
    assert 0 < built <= len(kept)
