"""Golden differential test: generation and pipeline exports, byte for byte.

The digests pin the exports of the rational fitter and filters on both
bundled corpora, so a refactor of row selection, fitting or filtering that
changes any conjecture, its order or its rendering fails here.
"""

import hashlib

import pytest

from sharpbounds import (
    EngineConfig,
    build_table,
    read_graph6_file,
    run_pipeline,
    standard_invariants,
    write_export,
)

from conftest import DATA
from oracles import generate

# corpus file -> (unfiltered generate export, generality+dalmatian pipeline export)
GOLDEN = {
    "cubic_connected_4_10.g6": (
        "1a40d471f8c88cc0a7187214d130591c618d3e387c59885f3dbb55da15f2761b",
        "9266eb621f64a10e2a7cb63041a1011ddc4d4a06f022d44740cd200d5cb9b50b"),
    "mixed_graphs.g6": (
        "86e9bf7be97519e4069323ed5285bb82ca21a5167ff4a70ac1928856d34fc17e",
        "daeadc913c228b30618bacca68a789b61b561dacf638ca62464e7a00e4206d03"),
}


def export_digest(conjectures, path):
    write_export(conjectures, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("corpus", sorted(GOLDEN))
def test_golden_exports(corpus, tmp_path):
    table = build_table(read_graph6_file(DATA / corpus))
    targets = tuple(sorted(standard_invariants()))
    unfiltered = EngineConfig(targets=targets, max_hypothesis_size=3,
                              min_support=5, filters=())
    filtered = EngineConfig(targets=targets, max_hypothesis_size=3,
                            min_support=5, filters=("generality", "dalmatian"))
    digests = (export_digest(generate(table, unfiltered), tmp_path / "gen.jsonl"),
               export_digest(run_pipeline(table, filtered), tmp_path / "run.jsonl"))
    assert digests == GOLDEN[corpus]
