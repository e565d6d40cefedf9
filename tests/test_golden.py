"""Golden differential test: generation and pipeline exports, byte for byte.

The digests pin the exports of the rational fitter and filters on both
bundled corpora, so a refactor of row selection, fitting or filtering that
changes any conjecture, its order or its rendering fails here. A third
digest pins what ``verify`` prints for the pipeline export on both bundled
corpora, so a refactor of verification that changes a verdict, a
counterexample, a touch count or an exit code fails here too.
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
from sharpbounds.cli import main

from conftest import DATA
from oracles import generate

# corpus file -> (unfiltered generate export, generality+dalmatian pipeline
# export, verify of that pipeline export on each bundled corpus)
GOLDEN = {
    "cubic_connected_4_10.g6": (
        "c3a37eef7e56d281f0fc1d77bb3eb8ce4cd019b7cb0983370eaff9f8b9f33bc6",
        "9266eb621f64a10e2a7cb63041a1011ddc4d4a06f022d44740cd200d5cb9b50b",
        "9c4b71b0034402de19ca82f8c36f85122c336f006777fd4c8c9087b3ff80036a"),
    "mixed_graphs.g6": (
        "ca934ce5e39138de0ab6b60568336f3ecd489495e3050ce88b758c638fe7d95e",
        "daeadc913c228b30618bacca68a789b61b561dacf638ca62464e7a00e4206d03",
        "de0157d9d524b295474a555b0f3ca5175c84f903a8b1577f7d28c269b7d08dbb"),
}


def export_digest(conjectures, path):
    write_export(conjectures, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_digest(export, capsys):
    """sha256 of the exit code and stdout of ``verify`` of ``export`` on
    each bundled corpus, in name order."""
    digest = hashlib.sha256()
    for against in sorted(GOLDEN):
        code = main(["verify", str(export), str(DATA / against)])
        digest.update(f"{code}\0{capsys.readouterr().out}\0".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("corpus", sorted(GOLDEN))
def test_golden_exports(corpus, tmp_path, capsys):
    table = build_table(read_graph6_file(DATA / corpus))
    targets = tuple(sorted(standard_invariants()))
    unfiltered = EngineConfig(targets=targets, max_hypothesis_size=3,
                              min_support=5, filters=())
    filtered = EngineConfig(targets=targets, max_hypothesis_size=3,
                            min_support=5, filters=("generality", "dalmatian"))
    digests = (export_digest(generate(table, unfiltered), tmp_path / "gen.jsonl"),
               export_digest(run_pipeline(table, filtered), tmp_path / "run.jsonl"),
               verify_digest(tmp_path / "run.jsonl", capsys))
    assert digests == GOLDEN[corpus]
