"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root.

They run every workload at its smallest size, so they take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import corpora  # noqa: E402  (needs the program on sys.path)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_smoke_mode_passes():
    assert run.main(["--smoke"]) == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload):
    first, _ = run.run_workload(workload, 7, 0, True, smoke=True)
    second, _ = run.run_workload(workload, 7, 0, True, smoke=True)
    assert first["correct"] and second["correct"]
    for name in spans.count_metric_names():
        assert first["metrics"][name] == second["metrics"][name], name


def test_seed_fixes_the_inputs():
    def inputs(seed):
        return ([corpora.tabulate_corpus(seed, i, "t") for i in range(3)],
                [corpora.refute_corpus(seed, i, "r") for i in range(3)],
                corpora.sweep_order(seed, 0, 24))

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_tracer_restores_every_binding():
    from sharpbounds import cli, engine, features, fitting
    before = (engine.fit_linear_bound, cli.load_or_build_table, cli.main,
              features.FeatureTable.support, fitting.fit_linear_bound)
    with spans.Tracer():
        assert engine.fit_linear_bound is not before[0]
        assert cli.load_or_build_table is not before[1]
    after = (engine.fit_linear_bound, cli.load_or_build_table, cli.main,
             features.FeatureTable.support, fitting.fit_linear_bound)
    assert after == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_lists_what_the_runs_emit():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert run.NAME_RE.fullmatch(metric["name"])
    assert Path(run.ROOT / bench["command"][1]).resolve() == Path(run.__file__).resolve()
