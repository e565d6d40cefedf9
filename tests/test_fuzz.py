"""Exit codes hold for every input: the four files a run reads (a graph6
corpus, a table cache, an export and a config file), mutated at random and
pushed to the extremes Python's readers trip on, through ``cli.main`` in
process.

Every run exits 0, 1 or 2 and raises nothing, exit 1 comes only from a
``verify`` run that prints a counterexample, and exit 2 always says why: an
``error:`` line on stderr, or an ``ERROR`` line of ``verify``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sharpbounds import (cli, complete, complete_bipartite, cycle, path,
                         star, write_graph6_file)

TARGETS = "alpha,Z,gamma"
# the extremes, each applied at a drawn position: a UTF-8 byte order mark,
# a NUL byte, CRLF line ends, an integer of more digits than ``int`` reads
# from a string, and an array nested deeper than the recursion limit
EXTREMES = ("bom", "nul", "crlf", "digits", "nesting")
# bytes the readers treat specially, and one that is not UTF-8
ALPHABET = b"09-+ \t\n\r\"[]{}:,=#.~?_\xff"


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, which must return
    0, 1 or 2 without raising."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    lines = out.splitlines()
    assert code in (0, 1, 2), (argv, code, err)
    counterexample = any(line.startswith("COUNTEREXAMPLE ") for line in lines)
    if code == 1:
        assert argv[0] == "verify" and counterexample, (argv, out)
    if code == 2:
        assert err.startswith("error: ") or any(
            line.startswith("ERROR ") for line in lines), (argv, out, err)
    if code == 0:
        assert err == "" and not counterexample, (argv, out, err)
    return code, out, err


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of a well-formed corpus, table cache, export and config
    file: the cache and export are written by the program itself."""
    work = tmp_path_factory.mktemp("originals")
    corpus = work / "corpus.g6"
    write_graph6_file([complete(3), complete(4), cycle(4), cycle(5), path(4),
                       path(5), star(3), complete_bipartite(2, 3)], corpus)
    cache, export = work / "cache", work / "export.jsonl"
    assert run(["conjecture", "--corpus", str(corpus), "--targets", TARGETS,
                "--min-support", "2", "--filters", "none", "--cache",
                str(cache), "--export", str(export)])[0] == 0
    (table,) = cache.iterdir()  # named by the corpus digest
    config = (f"# every key a run may take from it\ntargets = {TARGETS}\n"
              "directions = lower,upper\nmax_hypothesis_size = 2\n"
              "min_support = 2\nfilters = both\ntop_k = 3\n"
              "format = structured\n")
    files = {"corpus": corpus.read_bytes(), "cache": table.read_bytes(),
             "export": export.read_bytes(), "config": config.encode()}
    return files, table.name


@st.composite
def mutations(draw):
    """A file kind, and a list of edits: byte replacements, insertions and
    deletions at drawn positions, then the drawn extremes."""
    kind = draw(st.sampled_from(("corpus", "cache", "export", "config")))
    byte = st.sampled_from(ALPHABET).map(lambda b: bytes([b]))
    edit = st.tuples(st.sampled_from(("replace", "insert", "delete")),
                     st.floats(0, 1), byte)
    edits = draw(st.lists(edit, max_size=4))
    extremes = draw(st.lists(st.tuples(st.sampled_from(EXTREMES),
                                       st.floats(0, 1)), max_size=2))
    return kind, edits, extremes


def mutate(data: bytes, edits, extremes) -> bytes:
    for op, where, byte in edits:
        at = int(where * len(data))
        if op == "insert":
            data = data[:at] + byte + data[at:]
        elif data:
            data = data[:at] + (byte if op == "replace" else b"") + data[at + 1:]
    for extreme, where in extremes:
        at = int(where * len(data))
        if extreme == "bom":
            data = b"\xef\xbb\xbf" + data
        elif extreme == "crlf":
            data = data.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
        else:
            # the digits replace the run of digits at the drawn position,
            # if there is one, so that a number becomes a longer number
            start = end = at
            while end < len(data) and data[end:end + 1].isdigit():
                end += 1
            insert = {"nul": b"\0", "digits": b"7" * 4301,
                      "nesting": b"[" * 200_000 + b"]" * 200_000}[extreme]
            data = data[:start] + insert + data[end:]
    return data


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(mutations())
@example(("export", [], [("digits", 0.05)]))
@example(("export", [], [("nesting", 0.0)]))
@example(("corpus", [], [("bom", 0.0), ("crlf", 0.0)]))
@example(("cache", [], [("nul", 0.5), ("crlf", 0.0)]))
@example(("cache", [], [("digits", 0.9)]))
@example(("config", [], [("digits", 0.99)]))
@example(("config", [("replace", 0.3, b"\xff")], [("bom", 0.0)]))
def test_every_mutated_input_exits_0_1_or_2(originals, mutation):
    kind, edits, extremes = mutation
    files, cache_name = originals
    files = dict(files)
    files[kind] = mutate(files[kind], edits, extremes)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        corpus, export, config = (work / "corpus.g6", work / "export.jsonl",
                                  work / "run.cfg")
        corpus.write_bytes(files["corpus"])
        export.write_bytes(files["export"])
        config.write_bytes(files["config"])
        cache = work / "cache"
        cache.mkdir()
        # the cache is keyed by the unmutated corpus, so a mutated corpus
        # misses it and a mutated cache file is read
        (cache / cache_name).write_bytes(files["cache"])
        # paths come as flags, which override the config's keys, so that
        # no mutation points a write outside the work directory
        paths = ["--corpus", str(corpus), "--cache", str(cache)]
        if kind in ("corpus", "cache"):
            run(["invariants", str(corpus), "--cache", str(cache)])
        if kind in ("corpus", "cache", "config"):
            run(["conjecture", "--config", str(config), *paths,
                 "--export", str(work / "out.jsonl")])
        if kind in ("corpus", "export"):
            run(["verify", str(export), str(corpus)])
