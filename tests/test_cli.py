import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sharpbounds import (
    CorpusError,
    Graph,
    Hypothesis,
    SharpBoundingFunction,
    Conjecture,
    complete,
    cycle,
    path,
    petersen,
    read_graph6_file,
    read_numbered_export,
    star,
    to_graph6,
    write_export,
    write_graph6_file,
)
from sharpbounds import cli, engine, features, invariants
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


def test_invariants_refuse_an_oversize_graph_before_any_search(
        tmp_path, capsys, monkeypatch):
    # each column is evaluated largest graph first, so K21 is refused before
    # either K20 is searched
    target = tmp_path / "big.g6"
    write_graph6_file([complete(20), complete(20), complete(21)], target)
    orders = []

    def counting_registry():
        registry = standard_invariants()
        solve = registry["zero_forcing_number"]
        registry["zero_forcing_number"] = \
            lambda g: orders.append(g.order) or solve(g)
        return registry

    monkeypatch.setattr(cli, "standard_invariants", counting_registry)
    assert run_main(capsys, "invariants", str(target), "--columns", "Z") == (
        2, "", "error: graph big#3 has order 21, above the exact solvers' "
               "maximum order 20\n")
    assert orders == [21]


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
    assert called == {"independence_number"}


def test_narrow_invariants_cache_serves_a_later_conjecture(petersen_file,
                                                           tmp_path, capsys,
                                                           monkeypatch):
    # the cache holds exactly the named column; a full run computes the
    # others and keeps it
    cache = tmp_path / "cache"
    assert run_main(capsys, "invariants", str(petersen_file), "--columns",
                    "alpha", "--cache", str(cache))[0] == 0
    (table_file,) = cache.iterdir()
    assert table_file.read_text() == "label\tindependence_number\npetersen\t4\n"

    called = set()

    def counting_registry():
        return {name: (lambda g, _name=name, _fn=fn:
                       called.add(_name) or _fn(g))
                for name, fn in standard_invariants().items()}

    monkeypatch.setattr(cli, "standard_invariants", counting_registry)
    assert run_main(capsys, "conjecture", "--corpus", str(petersen_file),
                    "--targets", "alpha", "--cache", str(cache))[0] == 0
    assert called == set(standard_invariants()) - {"independence_number"}
    header, row = (line.split("\t")
                   for line in table_file.read_text().splitlines())
    assert header[:2] == ["label", "independence_number"]
    assert sorted(header[2:]) == sorted(
        set(standard_invariants()) - {"independence_number"}
        | set(standard_predicates()))
    assert row[:2] == ["petersen", "4"]


@pytest.mark.parametrize("columns, repeated", [
    ("alpha,alpha", "independence_number"),
    ("alpha,independence_number", "independence_number"),
    ("n,cubic,order", "order"),
    (",", None),  # no column at all
])
def test_invariants_repeated_column_is_config_error(petersen_file, capsys,
                                                    columns, repeated):
    code = main(["invariants", str(petersen_file), "--columns", columns])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    message = (f"column '{repeated}' is given more than once" if repeated
               else "at least one column is required")
    assert message in captured.err


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


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_failed_export_write_prints_nothing_and_names_the_path(tmp_path, capsys,
                                                              fmt):
    # the export is written before anything is printed, and the error names
    # the file asked for, not the temporary file beside it
    export = tmp_path / "no" / "such" / "dir" / "x.jsonl"
    code, out, err = run_main(
        capsys, "conjecture", "--corpus",
        str(ROOT / "data" / "cubic_connected_4_10.g6"), "--targets", "alpha",
        "--format", fmt, "--export", str(export))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {export}: ")
    assert ".tmp" not in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("directions, message", [
    ("both", "unknown direction 'both'"),
    (",", "at least one direction is required"),
])
def test_conjecture_directions_outside_upper_and_lower(capsys, directions,
                                                       message):
    # --directions takes a comma-separated list of upper and lower
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    code, out, err = run_main(capsys, "conjecture", "--corpus", str(corpus),
                              "--targets", "alpha", "--directions", directions)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_conjecture_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"targets = \xff\xfe\n")
    code = main(["conjecture", "--config", str(cfg)])
    assert code == 2
    assert f"cannot read config {cfg}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("separator", ["\x1c", "\u2028"])
def test_config_lines_end_at_a_line_feed_alone(tmp_path, capsys, separator):
    # any other line separator is a character of its line, so line 2 holds
    # one key, and a comment runs to the line feed
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cfg = tmp_path / "run.cfg"
    key = f"bogus{separator}top_k"
    cfg.write_text(f"targets = alpha\n{key} = 3\n", encoding="utf-8")
    argv = ("conjecture", "--config", str(cfg), "--corpus", str(corpus))
    assert run_main(capsys, *argv) == (
        2, "", f"error: {cfg}:2: unknown key {key!r}\n")
    cfg.write_text(f"targets = alpha\n# a note{separator}bogus\n",
                   encoding="utf-8")
    code, out, err = run_main(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("# ")


@pytest.mark.parametrize("role", ["corpus", "config", "export",
                                  "verify-corpus"])
def test_missing_input_file_is_one_error_line(tmp_path, capsys, role):
    # every input file is read one way, so a missing one is reported one way
    missing = tmp_path / "missing"
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record()], export)
    argv = {"corpus": ["invariants", str(missing)],
            "config": ["conjecture", "--config", str(missing)],
            "export": ["verify", str(missing), str(corpus)],
            "verify-corpus": ["verify", str(export), str(missing)]}[role]
    shown = role.removeprefix("verify-")
    assert run_main(capsys, *argv) == (
        2, "", f"error: cannot read {shown} {missing}: "
               f"{os.strerror(errno.ENOENT)}\n")


def test_config_corpus_path_holding_a_nul_is_one_error_line(tmp_path, capsys):
    # no command line can hold a NUL byte, but a config value can
    cfg = tmp_path / "run.cfg"
    cfg.write_text("targets = alpha\ncorpus = a\0b\n")
    assert run_main(capsys, "conjecture", "--config", str(cfg)) == (
        2, "", "error: cannot read corpus a\0b: embedded null byte\n")


@pytest.mark.parametrize("key", ["cache", "export"])
def test_config_written_path_holding_a_nul_is_one_error_line(tmp_path, capsys,
                                                             key):
    # a path the run would write is refused at its config line, before the
    # corpus is read or anything is written
    cfg = tmp_path / "run.cfg"
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cfg.write_text(f"targets = alpha\ncorpus = {corpus}\n{key} = c\0d\n")
    assert run_main(capsys, "conjecture", "--config", str(cfg)) == (
        2, "", f"error: {cfg}:3: {key} path holds a NUL byte\n")
    assert list(tmp_path.iterdir()) == [cfg]


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
    (["top_k 3"], 3, "expected 'key = value'"),
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
    keys = set(cli._CONJECTURE_OPTIONS)
    assert keys == set(options) - {"command", "func", "config"}
    assert len(keys) == 10
    assert list(OPTION_VALUES) == list(cli._CONJECTURE_OPTIONS)


# a value for each ``conjecture`` option that differs from its default
OPTION_VALUES = {
    "corpus": str(ROOT / "data" / "mixed_graphs.g6"),
    "targets": "alpha",
    "directions": "upper",
    "max_hypothesis_size": "1",
    "min_support": "20",
    "filters": "both",
    "top_k": "2",
    "format": "structured",
    "export": "E.jsonl",
    "cache": "C",
}


@pytest.mark.parametrize("key", list(cli._CONJECTURE_OPTIONS))
def test_conjecture_option_by_flag_or_config_key(tmp_path, capsys,
                                                 monkeypatch, key):
    # the same value means the same run, given as a flag or as a config key
    monkeypatch.chdir(tmp_path)
    flags = [arg for name in ("corpus", "targets") if name != key
             for arg in ("--" + name, OPTION_VALUES[name])]
    Path("run.cfg").write_text(f"{key} = {OPTION_VALUES[key]}\n")
    runs = {}
    for given, extra in (
            ("flag", ["--" + key.replace("_", "-"), OPTION_VALUES[key]]),
            ("config", ["--config", "run.cfg"]), ("neither", [])):
        code = main(["conjecture", *flags, *extra])
        export = Path("E.jsonl")
        runs[given] = (code, capsys.readouterr().out,
                       export.read_text() if export.exists() else None,
                       sorted(os.listdir("C")) if Path("C").exists() else None)
        export.unlink(missing_ok=True)
        shutil.rmtree("C", ignore_errors=True)
    assert runs["flag"] == runs["config"]
    assert runs["flag"][0] == 0
    # the value is read: leaving it out changes the run
    assert runs["neither"] != runs["flag"]


@pytest.mark.parametrize("key, choices", [
    ("filters", "['both', 'dalmatian', 'generality', 'none']"),
    ("format", "['text', 'structured']"),
])
def test_conjecture_config_value_outside_its_choices(tmp_path, capsys, key,
                                                     choices):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus}\ntargets = alpha\n{key} = json\n")
    code = main(["conjecture", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {key} must be one of {choices}\n"


def test_conjecture_config_value_overridden_by_its_flag_is_not_read(
        tmp_path, capsys):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus}\ntargets = alpha\ndirections = upper\n"
                   "top_k = five\n")
    code = main(["conjecture", "--config", str(cfg), "--top-k", "1"])
    assert code == 0
    assert capsys.readouterr().out.startswith("# 1 conjectures")


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


@pytest.mark.parametrize("line", [
    # more digits than int converts from a string
    '{"target": "independence_number", "slope": [1%s, 1]}' % ("0" * 4300),
    # nested deeper than the recursion limit
    "[" * 200_000 + "]" * 200_000,
], ids=["4301-digit-integer", "200000-deep-array"])
def test_verify_unreadable_json_line_is_config_error(tmp_path, capsys, line):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record()], export)
    export.write_text(export.read_text() + line + "\n")
    code = main(["verify", str(export), str(corpus)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {export}:2: ")


def test_verify_unprintable_counterexample_is_an_error_line(tmp_path, capsys):
    # both pairs parse, and K4 refutes the bound, but its rhs has more
    # digits than int converts to a string
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "records.jsonl"
    huge = 10**4299
    write_export([conjecture_record(other="order", hypothesis=(),
                                    slope=-huge, intercept=Fraction(1, huge)),
                  conjecture_record(other="order", hypothesis=())], export)
    code = main(["verify", str(export), str(corpus)])
    captured = capsys.readouterr()
    assert code == 2
    first, second = captured.out.splitlines()
    assert first.startswith(f"ERROR {export}:1: Exceeds the limit")
    assert second.startswith("HOLDS touch=")
    assert captured.err == ""


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
           dict(record, other=record["target"]),
           dict(record, hypothesis=["planar"]), dict(record, touch_number=2),
           None]
    lines = [json.dumps(r) for r in bad] + ["", good, false_claim]
    export.write_text("\n".join(lines) + "\n")
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2  # an unchecked record outranks a counterexample
    assert [line.split(" ", 2)[:2] for line in out[:8]] == \
        [["ERROR", f"{export}:{n}:"] for n in range(1, 9)]
    assert out[3] == f"ERROR {export}:4: record is not a JSON object"
    assert out[5].endswith("unknown predicate 'planar'")
    assert out[6].endswith("touch_number must equal |touch_set| and be >= 1")
    assert out[7] == f"ERROR {export}:8: record is not a JSON object"
    assert out[8].startswith("HOLDS")
    assert out[9].startswith("COUNTEREXAMPLE c#2 ")
    assert len(out) == 10


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


@pytest.mark.parametrize("field, value", [
    ("target", ["independence_number"]),
    ("other", {"name": "order"}),
    ("direction", ["upper"]),
])
def test_verify_name_field_must_be_a_string(tmp_path, capsys, field, value):
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="order")], export)
    good = export.read_text()
    export.write_text(json.dumps(dict(json.loads(good), **{field: value}))
                      + "\n" + good)
    code, out, err = run_main(capsys, "verify", str(export), str(corpus))
    assert (code, err) == (2, "")
    first, second = out.splitlines()
    assert first == (f"ERROR {export}:1: the {field!r} field must be a name, "
                     f"got {value!r}")
    assert second.startswith("HOLDS")


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


def count_column_calls(monkeypatch, calls):
    """Make ``cli``'s registries count their calls in ``calls``, by
    (column name, graph label)."""
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


def test_verify_walks_the_corpus_once_per_record(tmp_path, capsys,
                                                 monkeypatch):
    # each record that holds is checked and touch-counted in one walk: each
    # of its solvers runs once per graph, each predicate any record names
    # runs once per graph in the whole run, however many records name it,
    # and no other column runs
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="matching_number",
                                    hypothesis=("connected", "cubic")),
                  conjecture_record(other="order", hypothesis=("cubic",))],
                 export)
    calls = Counter()
    count_column_calls(monkeypatch, calls)
    code = main(["verify", str(export), str(corpus)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 2)[:2] for line in out] == \
        [["HOLDS", "touch=4"], ["HOLDS", "touch=0"]]
    labels = [g.label for g in read_graph6_file(corpus)]
    per_graph = {"independence_number": 2, "matching_number": 1, "order": 1,
                 "connected": 1, "cubic": 1}
    assert calls == Counter({(name, label): count
                             for name, count in per_graph.items()
                             for label in labels})


def test_verify_computes_no_predicate_for_an_unchecked_record(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    # a record naming an unknown invariant, or an unknown predicate beside a
    # known one, keeps its ERROR line, and its predicates are never computed
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), cycle(5)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="girth", hypothesis=("bipartite",)),
                  conjecture_record(other="order", hypothesis=("connected",))],
                 export)
    record = json.loads(export.read_text().splitlines()[0])
    unknown = dict(record, other="order", hypothesis=["claw-free", "planar"])
    export.write_text(export.read_text() + json.dumps(unknown) + "\n")
    calls = Counter()
    count_column_calls(monkeypatch, calls)
    code = main(["verify", str(export), str(corpus)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out[0] == f"ERROR {export}:1: unknown invariant 'girth'"
    assert out[1].startswith("HOLDS touch=0 ")
    assert out[2] == f"ERROR {export}:3: unknown predicate 'planar'"
    assert len(out) == 3
    assert {name for name, _ in calls} == {"connected", "independence_number",
                                           "order"}


def test_verify_never_solves_a_graph_outside_the_support(tmp_path, capsys):
    # P21 is above the solvers' order limit, but not cubic, so alpha is
    # never asked of it and the record holds on the two cubic graphs
    corpus = tmp_path / "c.g6"
    write_graph6_file([complete(4), petersen(), path(21)], corpus)
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(other="order", hypothesis=("cubic",),
                                    slope=Fraction(1, 2))], export)
    code = main(["verify", str(export), str(corpus)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == ("HOLDS touch=0 If G is a cubic graph, then "
                            "α(G) ≤ (1/2)·n(G)\n")


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
    records = read_numbered_export(export)
    check = run_cli("verify", str(export), str(corpus), **posix)
    assert check.returncode == 0, check.stderr
    lines = check.stdout.splitlines()
    assert len(lines) == len(records) > 0
    assert all(line.startswith("HOLDS") for line in lines)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_export_of_labels_holding_a_line_separator_verifies(tmp_path, capsys,
                                                            separator):
    # only "\n" ends an export line; JSON leaves these separators unescaped
    # in the touch sets, which name graphs by their corpus stem
    corpus = tmp_path / f"cubic{separator}graphs.g6"
    shutil.copy(ROOT / "data" / "cubic_connected_4_10.g6", corpus)
    export = tmp_path / "E"
    assert run_main(capsys, "conjecture", "--corpus", str(corpus),
                    "--targets", "alpha", "--export", str(export))[0] == 0
    assert separator in export.read_text(encoding="utf-8")
    records = read_numbered_export(export)
    assert [lineno for lineno, _ in records] == list(range(1, len(records) + 1))
    code, out, err = run_main(capsys, "verify", str(export), str(corpus))
    assert (code, err) == (0, "")
    assert out.count("HOLDS") == len(records) > 0


def test_stdout_that_cannot_encode_a_statement_is_an_error_line(
        tmp_path, capsys, monkeypatch):
    # α cannot be written to an ASCII stdout: conjecture and verify each
    # end with one error line and exit 2, which verify keeps apart from
    # exit 1 (a counterexample)
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    export = tmp_path / "E"
    argv = ["conjecture", "--corpus", str(corpus), "--targets", "alpha",
            "--cache", str(tmp_path / "cache")]
    assert main(argv + ["--export", str(export)]) == 0
    capsys.readouterr()
    for argv in (argv, ["verify", str(export), str(corpus)]):
        monkeypatch.setattr(sys, "stdout",
                            io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# table cache: a hit decodes nothing
# ---------------------------------------------------------------------------

BUNDLED = ["cubic_connected_4_10.g6", "mixed_graphs.g6"]


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper counting its calls."""
    original = getattr(owner, name)
    counts = [0]

    def counted(*args, **kwargs):
        counts[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counts


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def conjecture_argv(corpus, cache, export):
    return ["conjecture", "--corpus", str(corpus), "--targets", "alpha,Z",
            "--max-hypothesis-size", "3", "--filters", "both",
            "--cache", str(cache), "--export", str(export)]


@pytest.mark.parametrize("name", BUNDLED)
def test_warm_runs_decode_nothing_and_match_cold_runs(tmp_path, capsys,
                                                      monkeypatch, name):
    corpus = ROOT / "data" / name
    cache = tmp_path / "cache"
    cold = run_main(capsys, *conjecture_argv(corpus, cache, tmp_path / "cold.jsonl"))
    cold_invariants = run_main(capsys, "invariants", str(corpus))
    assert cold[0] == cold_invariants[0] == 0

    graphs = count_calls(monkeypatch, Graph, "__post_init__")
    built = count_calls(monkeypatch, features, "build_table")
    warm = run_main(capsys, *conjecture_argv(corpus, cache, tmp_path / "warm.jsonl"))
    warm_invariants = run_main(capsys, "invariants", str(corpus), "--cache", str(cache))
    assert (graphs[0], built[0]) == (0, 0)
    assert warm == cold and warm_invariants == cold_invariants
    assert (tmp_path / "warm.jsonl").read_bytes() == \
        (tmp_path / "cold.jsonl").read_bytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_digest_of_the_decoded_file_names_the_cache_file(tmp_path, capsys, name):
    corpus = ROOT / "data" / name
    assert run_main(capsys, "invariants", str(corpus), "--cache",
                    str(tmp_path))[0] == 0
    assert list(tmp_path.iterdir()) == \
        [features.cache_file(read_graph6_file(corpus), tmp_path)]


@pytest.mark.parametrize("name", BUNDLED)
def test_cache_keyed_on_decoded_graphs_is_reused(tmp_path, capsys, monkeypatch,
                                                 name):
    # earlier releases keyed the cache on each decoded graph's label and
    # canonical graph6 string; a file they wrote is read, not rebuilt
    corpus = ROOT / "data" / name
    graphs = read_graph6_file(corpus)
    key = "\n".join(f"{g.label} {to_graph6(g)}" for g in graphs)
    cache = tmp_path / "cache"
    cache.mkdir()
    table_file = cache / f"{hashlib.sha256(key.encode()).hexdigest()}.tsv"
    features.save_table(features.build_table(graphs), table_file)
    before = table_file.read_bytes()

    built = count_calls(monkeypatch, features, "build_table")
    decoded = count_calls(monkeypatch, Graph, "__post_init__")
    code, out, err = run_main(capsys, "invariants", str(corpus), "--cache", str(cache))
    assert (code, err, built[0], decoded[0]) == (0, "", 0, 0)
    assert list(cache.iterdir()) == [table_file]
    assert table_file.read_bytes() == before
    monkeypatch.undo()
    assert run_main(capsys, "invariants", str(corpus)) == (0, out, "")


def test_prefixed_and_padded_lines_hit_their_own_cache(tmp_path, capsys,
                                                       monkeypatch):
    plain = tmp_path / "plain.g6"
    write_graph6_file([petersen(), cycle(5), path(4)], plain)
    lines = plain.read_text().splitlines()
    corpus = tmp_path / "dressed.g6"
    corpus.write_text(f">>graph6<<{lines[0]}\n\n  {lines[1]}\t\n"
                      f"  >>graph6<<{lines[2]}  \n")
    cache = tmp_path / "cache"
    first = run_main(capsys, "invariants", str(corpus), "--cache", str(cache))
    assert first[0] == 0
    (table_file,) = cache.iterdir()

    built = count_calls(monkeypatch, features, "build_table")
    decoded = count_calls(monkeypatch, Graph, "__post_init__")
    assert run_main(capsys, "invariants", str(corpus), "--cache", str(cache)) == first
    assert (built[0], decoded[0]) == (0, 0)
    assert list(cache.iterdir()) == [table_file]


def test_other_encoding_of_the_same_graphs_only_misses(tmp_path, capsys):
    # "B" is "B?" with its padding character cut: the same empty graph on
    # three vertices, but other bytes, so another cache file
    cache = tmp_path / "cache"
    outputs = []
    for text in ("B?\nBw\n", "B\nBw\n"):
        corpus = tmp_path / "c.g6"
        corpus.write_text(text)
        outputs.append(run_main(capsys, "invariants", str(corpus), "--cache",
                                str(cache)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert len(list(cache.iterdir())) == 2


@pytest.mark.parametrize("command", ["invariants", "conjecture"])
def test_malformed_line_on_a_miss_names_the_line(tmp_path, capsys, command):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\n\nA_?\n")
    with pytest.raises(CorpusError) as expected:
        read_graph6_file(corpus)
    cache = tmp_path / "cache"
    argv = (["invariants", str(corpus)] if command == "invariants" else
            ["conjecture", "--corpus", str(corpus), "--targets", "alpha"])
    code, out, err = run_main(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err == f"error: {expected.value}\n"
    assert err.startswith("error: bad.g6:3: ")
    assert not cache.exists()


@pytest.mark.parametrize("command", ["invariants", "conjecture"])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfeC~\n", "not UTF-8 text"),
    (b"\n  \n", "empty corpus"),
])
def test_unreadable_or_empty_corpus_fails_with_a_warm_cache(
        tmp_path, capsys, petersen_file, command, content, message):
    cache = tmp_path / "cache"
    assert run_main(capsys, "invariants", str(petersen_file), "--cache",
                    str(cache))[0] == 0
    # a table under the digest of the empty corpus must not be served either
    empty_key = hashlib.sha256(b"").hexdigest()
    (cache / f"{empty_key}.tsv").write_text("label\torder\tsize\n")
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(content)
    argv = (["invariants", str(corpus)] if command == "invariants" else
            ["conjecture", "--corpus", str(corpus), "--targets", "alpha"])
    code, out, err = run_main(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (2, "")
    assert message in err and err.startswith("error: ")


def test_cache_with_other_labels_is_rebuilt(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.g6"
    write_graph6_file([petersen(), cycle(5), path(4)], corpus)
    cache = tmp_path / "cache"
    first = run_main(capsys, "invariants", str(corpus), "--cache", str(cache))
    (table_file,) = cache.iterdir()
    good = table_file.read_text()
    table_file.write_text(good.replace("c#2", "c#9"))

    built = count_calls(monkeypatch, features, "build_table")
    assert run_main(capsys, "invariants", str(corpus), "--cache", str(cache)) == first
    assert built[0] == 1
    assert table_file.read_text() == good


@pytest.mark.parametrize("numeric", [None, "4.0", "+٤", " 4", "04", "4_0", "-0"])
@pytest.mark.parametrize("cell", ["TRUE", "1", ""])
def test_bad_boolean_cache_cell_is_recomputed(tmp_path, capsys, cell, numeric):
    # K4 is the first graph of the census and cubic; a cell other than
    # true/false must not read as false, alone or beside a numeric cell
    # save_table cannot have written (it writes str(v))
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cache = tmp_path / "cache"
    argv = ("invariants", str(corpus), "--columns", "cubic,bipartite,order",
            "--cache", str(cache))
    first = run_main(capsys, *argv)
    assert first[0] == 0
    assert first[1].splitlines()[1] == "cubic_connected_4_10#1 true false 4"
    (table_file,) = cache.iterdir()
    good = table_file.read_text()
    header, *rows = [line.split("\t") for line in good.splitlines()]
    rows[0][header.index("cubic")] = cell
    if numeric is not None:
        rows[1][header.index("order")] = numeric
    table_file.write_text("".join("\t".join(r) + "\n"
                                  for r in [header, *rows]), encoding="utf-8")

    assert run_main(capsys, *argv) == first
    assert table_file.read_text() == good


# K4, the first census graph: n = 4, delta = 3, alpha = 1, beta = 3, mu = 2,
# mu* = 2, gamma = 1, i = 1, gamma_t = 2, Z = 3. Each planted cell breaks
# one identity and none checked before it.
BROKEN_IDENTITIES = [
    ("vertex_cover_number", "4", "α + β = n", "α = 1, β = 4, n = 4"),
    ("independent_domination_number", "2", "γ ≤ i ≤ α", "γ = 1, i = 2, α = 1"),
    ("min_maximal_matching", "3", "μ* ≤ μ ≤ 2μ*", "μ* = 3, μ = 2"),
    ("matching_number", "4", "μ ≤ β ≤ 2μ", "μ = 4, β = 3"),
    ("total_domination_number", "3", "γ ≤ γ_t ≤ 2γ", "γ = 1, γ_t = 3"),
    ("zero_forcing_number", "2", "Z ≥ δ", "Z = 2, δ = 3"),
]


@pytest.mark.parametrize("column,cell,identity,values", BROKEN_IDENTITIES,
                         ids=[case[0] for case in BROKEN_IDENTITIES])
def test_cache_cell_breaking_an_identity_is_refused(tmp_path, capsys, column,
                                                    cell, identity, values):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cache = tmp_path / "cache"
    argv = ("invariants", str(corpus), "--cache", str(cache))
    assert run_main(capsys, *argv)[0] == 0
    (table_file,) = cache.iterdir()
    header, *rows = [line.split("\t")
                     for line in table_file.read_text().splitlines()]
    rows[0][header.index(column)] = cell
    planted = "".join("\t".join(r) + "\n" for r in [header, *rows])
    table_file.write_text(planted)

    # a hit, then a partial rebuild: a Boolean cell the cache cannot have
    # written is left out and computed again, and the planted numeric cell
    # is still read from the file
    rows[1][header.index("cubic")] = "TRUE"
    unparsed = "".join("\t".join(r) + "\n" for r in [header, *rows])
    for text in (planted, unparsed):
        table_file.write_text(text)
        for run in (argv, conjecture_argv(corpus, cache, tmp_path / "e.jsonl")):
            code, out, err = run_main(capsys, *run)
            assert (code, out) == (2, "")
            assert err == (f"error: table cache {table_file}: row "
                           f"cubic_connected_4_10#1: {identity} fails with "
                           f"{values}\n")
        assert table_file.read_text() == text


def test_wrong_solver_is_refused_before_the_cache_is_written(tmp_path, capsys,
                                                            monkeypatch):
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"
    cache = tmp_path / "cache"
    solver = invariants.vertex_cover_number
    monkeypatch.setattr(invariants, "vertex_cover_number",
                        lambda g: solver(g) + 1)
    code, out, err = run_main(capsys, "invariants", str(corpus),
                              "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err == ("error: feature table: row cubic_connected_4_10#1: "
                   "α + β = n fails with α = 1, β = 4, n = 4\n")
    assert not cache.exists()


@pytest.mark.parametrize("command", ["invariants", "verify"])
def test_corpus_path_that_is_a_directory_is_one_error_line(tmp_path, capsys,
                                                           command):
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record()], export)
    argv = (["invariants", str(tmp_path)] if command == "invariants" else
            ["verify", str(export), str(tmp_path)])
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read corpus {tmp_path}: ")
    assert err.count("\n") == 1


def test_verify_malformed_corpus_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\n!!\n")
    export = tmp_path / "records.jsonl"
    write_export([conjecture_record(), conjecture_record(other="girth")], export)
    code, out, err = run_main(capsys, "verify", str(export), str(corpus))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad.g6:2: ") and err.count("\n") == 1


def test_cli_reaches_the_table_cache_through_its_own_binding(tmp_path, capsys,
                                                            monkeypatch):
    # perfbench/spans.py times load_or_build_table through cli's binding and
    # reads a cache hit as a call with no build_table inside it; one run
    # reads the cache file at most once, a partial rebuild included
    loads = count_calls(monkeypatch, cli, "load_or_build_table")
    builds = count_calls(monkeypatch, features, "build_table")
    reads = [0]
    read_text = Path.read_text

    def counted_read(self, *args, **kwargs):
        reads[0] += self.suffix == ".tsv"
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted_read)
    corpus = ROOT / "data" / "cubic_connected_4_10.g6"

    def calls(*argv):
        # (cache file reads, build_table calls) of one run that uses the
        # cache once
        before = (loads[0], reads[0], builds[0])
        assert run_main(capsys, *argv)[0] == 0
        assert loads[0] == before[0] + 1
        return (reads[0] - before[1], builds[0] - before[2])

    cache = tmp_path / "cache"
    assert calls("invariants", str(corpus), "--cache", str(cache)) == (0, 1)
    assert calls(*conjecture_argv(corpus, cache, tmp_path / "e.jsonl")) == (1, 0)
    # a partial rebuild reads the file once, computes the missing columns
    # in one build_table call and keeps the old column from that read
    partial = tmp_path / "partial"
    assert calls("invariants", str(corpus), "--columns", "alpha",
                 "--cache", str(partial)) == (0, 1)
    assert calls("invariants", str(corpus), "--cache", str(partial)) == (1, 1)
    assert calls("invariants", str(corpus), "--cache", str(partial)) == (1, 0)
    (table_file,) = partial.iterdir()
    header = table_file.read_text().split("\n", 1)[0].split("\t")
    assert header[:2] == ["label", "independence_number"]
    assert set(header) == {"label", *standard_invariants(), *standard_predicates()}


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("export", [True, False])
def test_conjecture_builds_the_export_text_once(tmp_path, capsys, monkeypatch,
                                                fmt, export):
    # a structured listing is the export text: built once, printed, and
    # written byte for byte to --export
    built = count_calls(monkeypatch, engine, "export_text")
    target = tmp_path / "e.jsonl"
    argv = ["conjecture", "--corpus", str(ROOT / "data" / "cubic_connected_4_10.g6"),
            "--targets", "alpha,Z", "--format", fmt]
    code, out, _ = run_main(capsys, *argv, *(["--export", str(target)] if export else []))
    assert code == 0
    assert built[0] == (fmt == "structured" or export)
    assert target.exists() == export
    if fmt == "structured" and export:
        assert out and out.encode() == target.read_bytes()


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
