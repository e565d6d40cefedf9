"""Differential tests: ``run_pipeline`` against the per-hypothesis reference.

``run_pipeline`` filters, ranks and truncates the sweep's fit records and
builds a conjecture only for each listed one. It must return exactly what
the reference in ``oracles`` returns: ``oracles.generate``'s list of one
conjecture per hypothesis, filtered over label sets, ranked and truncated,
for every filter choice and knob setting.
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


def test_pipeline_builds_conjectures_only_for_survivors(corpus_tables,
                                                        monkeypatch):
    table = corpus_tables["cubic_connected_4_10.g6"]
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
