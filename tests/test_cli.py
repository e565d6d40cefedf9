import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sharpbounds import (
    Hypothesis,
    SharpBoundingFunction,
    Conjecture,
    complete,
    cycle,
    path,
    petersen,
    read_export,
    read_graph6_file,
    star,
    write_export,
    write_graph6_file,
)
from sharpbounds import cli
from sharpbounds.cli import build_parser, main
from sharpbounds.invariants import standard_invariants
from sharpbounds.predicates import standard_predicates

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv, **env_overrides):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_overrides)
    return subprocess.run([sys.executable, "-m", "sharpbounds", *argv],
                          capture_output=True, text=True, env=env)


@pytest.fixture()
def petersen_file(tmp_path):
    target = tmp_path / "petersen.g6"
    write_graph6_file([petersen()], target)
    return target


def conjecture_record(target="independence_number", other="min_degree",
                      hypothesis=("connected",), slope=1, intercept=0,
                      direction="upper"):
    return Conjecture(
        target=target, other=other,
        hypothesis=Hypothesis(hypothesis),
        bound=SharpBoundingFunction(Fraction(slope).as_integer_ratio(),
                                    Fraction(intercept).as_integer_ratio(),
                                    direction),
        touch_set=frozenset({"x"}), touch_number=1, support_size=1)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_row(petersen_file, capsys):
    code = main(["invariants", str(petersen_file), "--columns", "alpha,mu"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "label independence_number matching_number"
    assert out[1] == "petersen 4 5"


def test_invariants_missing_cell(tmp_path, capsys):
    target = tmp_path / "one.g6"
    write_graph6_file([complete(1)], target)
    code = main(["invariants", str(target), "--columns", "gamma_t,connected"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "one - true"


def test_invariants_empty_corpus(tmp_path, capsys):
    target = tmp_path / "empty.g6"
    target.write_text("\n")
    code = main(["invariants", str(target)])
    assert code == 2
    assert "empty corpus" in capsys.readouterr().err


def test_invariants_malformed_line(tmp_path, capsys):
    target = tmp_path / "bad.g6"
    target.write_text("A_\n!!\n")
    code = main(["invariants", str(target)])
    assert code == 2
    assert "bad.g6:2" in capsys.readouterr().err


def test_invariants_non_utf8_corpus(tmp_path, capsys):
    target = tmp_path / "bin.g6"
    target.write_bytes(b"\xff\xfeC~\n")
    code = main(["invariants", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"cannot read corpus {target}: not UTF-8 text" in captured.err


def test_invariants_unknown_column(petersen_file, capsys):
    code = main(["invariants", str(petersen_file), "--columns", "girth"])
    assert code == 2
    assert "girth" in capsys.readouterr().err


def test_invariants_refuses_order_above_solver_limit(tmp_path, capsys):
    target = tmp_path / "big.g6"
    write_graph6_file([path(21)], target)
    code = main(["invariants", str(target), "--columns", "alpha"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: graph big has order 21, above the exact "
                            "solvers' maximum order 20\n")


def test_invariants_named_cheap_columns_pass_the_order_limit(tmp_path, capsys):
    target = tmp_path / "p21.g6"
    write_graph6_file([path(21)], target)
    code = main(["invariants", str(target), "--columns", "order,size"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == "label order size\np21 21 20\n"


def test_invariants_computes_only_named_columns(petersen_file, capsys,
                                                monkeypatch):
    called = set()

    def counting_registry():
        registry = standard_invariants()
        return {name: (lambda g, _name=name, _fn=fn:
                       called.add(_name) or _fn(g))
                for name, fn in registry.items()}

    monkeypatch.setattr(cli, "standard_invariants", counting_registry)
    code = main(["invariants", str(petersen_file), "--columns", "alpha"])
    assert code == 0
    assert capsys.readouterr().out == "label independence_number\npetersen 4\n"
    # one cheap column pads the table to the two numeric columns it needs
    assert called == {"independence_number", "order"}


@pytest.mark.parametrize("columns, repeated", [
    ("alpha,alpha", "independence_number"),
    ("alpha,independence_number", "independence_number"),
    ("n,cubic,order", "order"),
])
def test_invariants_repeated_column_is_config_error(petersen_file, capsys,
                                                    columns, repeated):
    code = main(["invariants", str(petersen_file), "--columns", columns])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"column '{repeated}' is given more than once" in captured.err


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------

def test_conjecture_run_and_export(tmp_path, capsys):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "out.jsonl"
    code = main(["conjecture", "--corpus", str(corpus),
                 "--targets", "alpha", "--directions", "upper",
                 "--filters", "generality", "--top-k", "5",
                 "--export", str(export)])
    out = capsys.readouterr().out
    assert code == 0
    assert "α(G) ≤ μ(G)" in out
    lines = export.read_text().splitlines()
    assert len(lines) == 5
    records = [json.loads(line) for line in lines]
    assert any(r["target"] == "independence_number"
               and r["other"] == "matching_number"
               and r["slope"] == [1, 1] and r["intercept"] == [0, 1]
               for r in records)


def test_conjecture_unknown_target_before_compute(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5)], corpus)
    code = main(["conjecture", "--corpus", str(corpus),
                 "--targets", "girth"])
    assert code == 2
    assert "girth" in capsys.readouterr().err


def test_conjecture_requires_corpus_and_targets(capsys):
    assert main(["conjecture", "--targets", "alpha"]) == 2
    assert main(["conjecture", "--corpus", "x.g6"]) == 2


@pytest.mark.parametrize("flags, repeated", [
    (["--targets", "alpha,alpha"], "target 'independence_number'"),
    (["--targets", "alpha,independence_number"], "target 'independence_number'"),
    (["--targets", "alpha", "--directions", "upper,upper"], "direction 'upper'"),
])
def test_conjecture_repeated_name_is_config_error(capsys, flags, repeated):
    # names are compared after aliases resolve; a repeat would list every
    # conjecture of that target or direction twice
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    code = main(["conjecture", "--corpus", str(corpus), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{repeated} is given more than once" in captured.err


def test_conjecture_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"targets = \xff\xfe\n")
    code = main(["conjecture", "--config", str(cfg)])
    assert code == 2
    assert f"cannot read config {cfg}: not UTF-8 text" in capsys.readouterr().err


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    # a reused parser keeps no state between calls
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    args = ["conjecture", "--corpus", str(corpus), "--targets", "alpha",
            "--directions", "upper"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(["conjecture", "--corpus", str(corpus), "--targets", "Z"]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_conjecture_config_file_with_flag_override(tmp_path, capsys):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"corpus = {corpus}\n"
        "targets = alpha\n"
        "directions = upper\n"
        "# comment lines are skipped\n"
        "filters = generality\n"
        "top_k = 3\n")
    code = main(["conjecture", "--config", str(cfg)])
    first = capsys.readouterr().out
    assert code == 0
    assert first.splitlines()[0].startswith("# 3 conjectures")

    code = main(["conjecture", "--config", str(cfg), "--top-k", "1"])
    second = capsys.readouterr().out
    assert code == 0
    assert second.splitlines()[0].startswith("# 1 conjectures")


@pytest.mark.parametrize("lines, lineno, message", [
    (["min_suport = 50"], 3, "unknown key 'min_suport'"),
    (["top-k = 1"], 3, "unknown key 'top-k'"),
    (["direction = upper"], 3, "unknown key 'direction'"),
    (["top_k = 3", "# a comment", "top_k = 1"], 5,
     "key 'top_k' is given more than once"),
    (["targets = Z"], 3, "key 'targets' is given more than once"),
])
def test_conjecture_config_unknown_or_repeated_key(tmp_path, capsys, lines,
                                                   lineno, message):
    # a misspelt or repeated key would otherwise be dropped without a word
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus}\ntargets = alpha\n"
                   + "".join(line + "\n" for line in lines))
    code = main(["conjecture", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {cfg}:{lineno}: {message}\n"


def test_config_keys_match_the_conjecture_options():
    # every option of ``conjecture`` but --config itself is a config key
    options = vars(build_parser().parse_args(["conjecture"]))
    assert set(cli.CONFIG_KEYS) == set(options) - {"command", "func", "config"}
    assert len(cli.CONFIG_KEYS) == 10


def test_conjecture_structured_output(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5), cycle(6), petersen(),
                       complete(5)], corpus)
    code = main(["conjecture", "--corpus", str(corpus), "--targets", "alpha",
                 "--directions", "upper", "--format", "structured",
                 "--min-support", "3"])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        assert record["direction"] == "upper"
        assert record["touch_number"] >= 1


def test_conjecture_filters_none_is_superset(tmp_path, capsys):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    base = ["conjecture", "--corpus", str(corpus), "--targets", "alpha",
            "--directions", "upper", "--top-k", "100000"]
    assert main(base + ["--filters", "none"]) == 0
    raw = {line for line in capsys.readouterr().out.splitlines()[1:]}
    assert main(base + ["--filters", "both"]) == 0
    filtered = capsys.readouterr().out.splitlines()[1:]
    # every surviving statement already appears in the raw listing
    raw_statements = {line.split(") ", 1)[1] for line in raw}
    for line in filtered:
        assert line.split(") ", 1)[1] in raw_statements
    assert len(filtered) <= len(raw)


def test_conjecture_per_group_truncation(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5), cycle(6), petersen(),
                       complete(5), complete(6)], corpus)
    code = main(["conjecture", "--corpus", str(corpus),
                 "--targets", "alpha,mu", "--min-support", "3",
                 "--top-k", "1", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    seen = set()
    for line in out.splitlines():
        record = json.loads(line)
        key = (record["target"], record["direction"])
        assert key not in seen
        seen.add(key)
    assert len(seen) == 4  # two targets, both directions


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_holds(tmp_path, capsys):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="matching_number",
                                    hypothesis=("connected", "cubic"))], export)
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("HOLDS touch=4 ")


def test_verify_counterexample(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), star(3)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record()], export)  # claims alpha <= min degree
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE c#2 lhs=3 rhs=1")


def test_verify_empty_export(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4)], corpus)
    export = tmp_path / "records.jsonl"
    export.write_text("")
    code = main(["verify", str(export), str(corpus)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_verify_unknown_property_continues(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5)], corpus)
    export = tmp_path / "records.jsonl"
    good = conjecture_record(other="matching_number")
    bad = conjecture_record(other="girth")
    write_export([bad, good], export)
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out[0].startswith("ERROR")
    assert out[1].startswith("HOLDS")


def test_verify_malformed_export_line_is_config_error(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record()], export)
    export.write_text(export.read_text() + '{"target": \n')
    code = main(["verify", str(export), str(corpus)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{export}:2:" in captured.err


def test_verify_non_utf8_export(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4)], corpus)
    export = tmp_path / "bin.jsonl"
    export.write_bytes(b"\xff\xfe{}\n")
    code = main(["verify", str(export), str(corpus)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"cannot read export {export}: not UTF-8 text" in captured.err


def test_verify_zero_denominator_is_an_error_line(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="matching_number")], export)
    record = json.loads(export.read_text())
    export.write_text(json.dumps(dict(record, slope=[1, 0])) + "\n")
    code = main(["verify", str(export), str(corpus)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith(f"ERROR {export}:1: ")
    assert captured.err == ""


def test_verify_bad_records_exit_2_and_others_still_checked(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), star(3)], corpus)
    export = tmp_path / "records.jsonl"
    # alpha <= order holds; alpha <= min degree fails on the star
    write_export([conjecture_record(other="order"), conjecture_record()], export)
    good, false_claim = export.read_text().splitlines()
    record = json.loads(good)
    bad = [dict(record, other="girth"), dict(record, direction="sideways"),
           {k: v for k, v in record.items() if k != "other"}, [1, 2],
           dict(record, other=record["target"])]
    lines = [json.dumps(r) for r in bad] + ["", good, false_claim]
    export.write_text("\n".join(lines) + "\n")
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2  # an unchecked record outranks a counterexample
    assert [line.split(" ", 2)[:2] for line in out[:5]] == \
        [["ERROR", f"{export}:{n}:"] for n in range(1, 6)]
    assert out[5].startswith("HOLDS")
    assert out[6].startswith("COUNTEREXAMPLE c#2 ")
    assert len(out) == 7


def test_verify_refuses_order_above_solver_limit(tmp_path, capsys):
    corpus = tmp_path / "big.g6"
    write_graph6_file([path(21)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="order"), conjecture_record()], export)
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out == [f"ERROR {export}:{n}: graph big has order 21, above the "
                   "exact solvers' maximum order 20" for n in (1, 2)]


@pytest.mark.parametrize("field", ["hypothesis", "touch_set"])
def test_verify_name_field_must_be_a_list(tmp_path, capsys, field):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="order")], export)
    good = export.read_text()
    export.write_text(json.dumps(dict(json.loads(good), **{field: "claw-free"}))
                      + "\n" + good)
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out[0] == (f"ERROR {export}:1: the {field!r} field must be a list "
                      "of names, got 'claw-free'")
    assert out[1].startswith("HOLDS")


@pytest.mark.parametrize("field, value, message", [
    ("slope", [True, 1], "must be a pair of integers, got [True, 1]"),
    ("intercept", [10, True], "must be a pair of integers, got [10, True]"),
    ("slope", [1], "must be a pair of integers, got [1]"),
    ("slope", [3, 2, 1], "must be a pair of integers, got [3, 2, 1]"),
    ("intercept", ["0", 1], "must be a pair of integers, got ['0', 1]"),
    ("touch_number", True, "must be an integer, got True"),
    ("touch_number", 1.0, "must be an integer, got 1.0"),
    ("support_size", "abc", "must be an integer, got 'abc'"),
    ("support_size", 5.0, "must be an integer, got 5.0"),
], ids=["slope-bool", "intercept-bool", "slope-single", "slope-triple",
        "intercept-string", "touch-bool", "touch-float", "support-string",
        "support-float"])
def test_verify_numeric_fields_must_be_plain_integers(tmp_path, capsys, field,
                                                      value, message):
    # JSON true is no integer here: read as 1 it would state another bound
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="order")], export)
    good = export.read_text()
    bad = dict(json.loads(good), **{field: value})
    export.write_text(json.dumps(bad) + "\n" + good)
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out[0] == f"ERROR {export}:1: the {field!r} field {message}"
    assert out[1].startswith("HOLDS")
    assert len(out) == 2


@pytest.mark.parametrize("support", [-5, 0, 2],
                         ids=["negative", "zero", "below-touch"])
def test_verify_support_below_touch_number_is_an_error_line(tmp_path, capsys,
                                                            support):
    # every touched object satisfies the hypothesis, so no run can count
    # fewer supporting objects than touched ones
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="order")], export)
    good = export.read_text()
    bad = dict(json.loads(good), touch_set=["a", "b", "c"], touch_number=3,
               support_size=support)
    export.write_text(json.dumps(bad) + "\n" + good)
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out[0] == (f"ERROR {export}:1: malformed record: support_size "
                      "must be >= touch_number")
    assert out[1].startswith("HOLDS")
    assert len(out) == 2


def test_verify_walks_the_corpus_once_per_record(tmp_path, capsys,
                                                 monkeypatch):
    # a record that holds is checked and touch-counted in one walk: each
    # involved solver and predicate runs once per graph, and no other runs
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="matching_number",
                                    hypothesis=("connected", "cubic"))], export)
    calls = Counter()

    def counting(registry):
        def wrap(name, fn):
            def counted(g):
                calls[name, g.label] += 1
                return fn(g)
            return counted
        return {name: wrap(name, fn) for name, fn in registry.items()}

    monkeypatch.setattr(cli, "standard_invariants",
                        lambda: counting(standard_invariants()))
    monkeypatch.setattr(cli, "standard_predicates",
                        lambda: counting(standard_predicates()))
    code = main(["verify", str(export), str(corpus)])
    assert code == 0
    assert capsys.readouterr().out.startswith("HOLDS touch=4 ")
    labels = [g.label for g in read_graph6_file(corpus)]
    involved = ("independence_number", "matching_number", "connected", "cubic")
    assert calls == Counter({(name, label): 1
                             for name in involved for label in labels})


def test_verify_output_ignores_hash_seed(tmp_path):
    # unknown predicates are reported in sorted order, not in set order
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="order")], export)
    record = json.loads(export.read_text())
    names = ["zz", "yy", "xx", "ww", "vv", "uu", "tt", "aa"]
    export.write_text(json.dumps(dict(record, hypothesis=names)) + "\n")
    runs = [run_cli("verify", str(export), str(corpus), PYTHONHASHSEED=seed)
            for seed in ("1", "2", "3")]
    assert [r.returncode for r in runs] == [2, 2, 2]
    assert runs[0].stdout == f"ERROR {export}:1: unknown predicate 'aa'\n"
    assert runs[1].stdout == runs[0].stdout
    assert runs[2].stdout == runs[0].stdout


@pytest.mark.parametrize("key", ["min_support", "top_k", "max_hypothesis_size"])
def test_conjecture_non_integer_config_value(tmp_path, capsys, key):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus}\ntargets = alpha\n{key} = five\n")
    code = main(["conjecture", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert key in captured.err and "five" in captured.err


def test_export_is_utf8_under_a_posix_locale(tmp_path):
    # statements hold α and ≤; the export and cache are UTF-8 whatever the
    # locale, as their readers expect
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "E"
    posix = dict(LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                 PYTHONIOENCODING="utf-8")
    run = run_cli("conjecture", "--corpus", str(corpus), "--targets", "alpha",
                  "--export", str(export), "--cache", str(tmp_path / "cache"),
                  **posix)
    assert run.returncode == 0, run.stderr
    records = read_export(export)
    check = run_cli("verify", str(export), str(corpus), **posix)
    assert check.returncode == 0, check.stderr
    lines = check.stdout.splitlines()
    assert len(lines) == len(records) > 0
    assert all(line.startswith("HOLDS") for line in lines)


# ---------------------------------------------------------------------------
# reproducibility (subprocess level)
# ---------------------------------------------------------------------------

def test_byte_identical_runs(tmp_path):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cache = tmp_path / "cache"
    args = ["conjecture", "--corpus", str(corpus), "--targets", "alpha,Z",
            "--directions", "upper", "--filters", "both",
            "--cache", str(cache), "--export", str(tmp_path / "e.jsonl")]
    first = run_cli(*args)
    export_first = (tmp_path / "e.jsonl").read_bytes()
    second = run_cli(*args)  # second run hits the table cache
    export_second = (tmp_path / "e.jsonl").read_bytes()
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert export_first == export_second
