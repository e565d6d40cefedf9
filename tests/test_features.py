import errno
import os
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpbounds import (
    ConfigError,
    EngineConfig,
    FeatureTable,
    Hypothesis,
    build_table,
    complete,
    cycle,
    load_or_build_table,
    load_table,
    mask_rows,
    path,
    read_graph6_file,
    save_table,
    standard_invariants,
    standard_predicates,
    write_export,
)
from sharpbounds import features
from sharpbounds.textio import read_lines

from oracles import generate


def small_registry():
    inv = standard_invariants()
    return {k: inv[k] for k in
            ("order", "independence_number", "matching_number",
             "total_domination_number")}


def test_build_table_values():
    table = build_table([complete(4)], small_registry(), standard_predicates())
    assert table.numeric["independence_number"] == (1,)
    assert table.numeric["matching_number"] == (2,)
    assert table.boolean["cubic"] == (True,)


def test_build_table_multi_row():
    table = build_table([path(4), cycle(5)], small_registry(),
                        standard_predicates())
    assert table.numeric["independence_number"] == (2, 2)
    assert table.boolean["connected"] == (True, True)
    assert table.labels == ("P4", "C5")


def test_missing_cell_for_undefined_invariant():
    table = build_table([complete(1)], small_registry(), standard_predicates())
    assert table.numeric["total_domination_number"] == (None,)


def test_build_table_rejects_empty_corpus():
    with pytest.raises(ConfigError):
        build_table([], small_registry(), standard_predicates())


def test_unlabeled_graphs_get_positional_labels():
    table = build_table([complete(3).relabeled(None), cycle(4).relabeled(None)],
                        small_registry(), standard_predicates())
    assert table.labels == ("g1", "g2")


def test_duplicate_labels_rejected():
    with pytest.raises(ConfigError):
        build_table([complete(3), complete(3)], small_registry(),
                    standard_predicates())


def test_support_and_select_rows():
    corpus = [complete(4), cycle(5), cycle(6), complete(1)]
    table = build_table(corpus, small_registry(), standard_predicates())

    assert table.support(Hypothesis()) == 0b1111
    assert table.support(Hypothesis({"connected", "cubic"})) == 0b0001
    assert table.support(Hypothesis({"bipartite"})) == 0b1100

    rows = table.select_rows(table.support(Hypothesis()), "matching_number",
                             "independence_number")
    assert rows == ((0, 1, 1 << 3), (2, 1, 1 << 0), (2, 2, 1 << 1),
                    (3, 3, 1 << 2))

    # K1 has no total domination value, so its row is dropped
    rows = table.select_rows(table.support(Hypothesis()),
                             "total_domination_number", "independence_number")
    assert [r[2] for r in rows] == [1 << 0, 1 << 1, 1 << 2]


def test_select_rows_bipartite_keeps_even_cycle_only():
    table = build_table([cycle(5), cycle(6)], small_registry(),
                        standard_predicates())
    rows = table.select_rows(table.support(Hypothesis({"bipartite"})), "order",
                             "independence_number")
    assert rows == ((6, 3, 1 << 1),)


def test_select_rows_groups_equal_pairs_in_xy_order():
    table = FeatureTable(
        labels=tuple("abcdef"),
        numeric={"x": (3, 1, 3, 2, None, 1), "y": (5, 6, 5, 6, 7, 2)},
        boolean={"p": (True,) * 6})
    # rows a and c share (3, 5); e has no x value and is dropped; f's (1, 2)
    # comes before b's (1, 6) although b is the lower row
    assert table.select_rows(0b111111, "x", "y") == \
        ((1, 2, 0b100000), (1, 6, 0b000010), (2, 6, 0b001000), (3, 5, 0b000101))
    # without rows a and b, the pair (3, 5) keeps row c alone
    assert table.select_rows(0b101100, "x", "y") == \
        ((1, 2, 0b100000), (2, 6, 0b001000), (3, 5, 0b000100))
    # order follows (x, y), not the lowest selected row: d's (2, 6)
    # precedes c's (3, 5) although c is the lower row
    assert table.select_rows(0b001110, "x", "y") == \
        ((1, 6, 0b000010), (2, 6, 0b001000), (3, 5, 0b000100))
    assert table.select_rows(0, "x", "y") == ()


def test_select_rows_validation():
    table = build_table([complete(4)], small_registry(), standard_predicates())
    with pytest.raises(ConfigError):
        table.select_rows(table.support(Hypothesis()), "order", "order")
    with pytest.raises(ConfigError):
        table.select_rows(table.support(Hypothesis()), "order",
                          "chromatic_number")
    with pytest.raises(ConfigError):
        table.support(Hypothesis({"planar"}))


def test_conjunction_monotonicity():
    corpus = [complete(4), cycle(5), cycle(6), path(4), complete(6)]
    table = build_table(corpus, small_registry(), standard_predicates())
    h1 = Hypothesis({"connected"})
    h2 = Hypothesis({"connected", "bipartite"})
    assert table.support(h2) & table.support(h1) == table.support(h2)


def test_build_table_is_pure():
    corpus = [complete(4), cycle(5)]
    a = build_table(corpus, small_registry(), standard_predicates())
    b = build_table(corpus, small_registry(), standard_predicates())
    assert a == b


@pytest.mark.parametrize("names", [("independence_number",), ()])
def test_table_with_fewer_than_two_numeric_columns_round_trips(tmp_path,
                                                               names):
    # fitting needs two numeric columns; a table does not
    inv = standard_invariants()
    table = build_table([complete(4), cycle(5), complete(1)],
                        {name: inv[name] for name in names},
                        standard_predicates())
    assert tuple(table.numeric) == names
    target = tmp_path / "table.tsv"
    save_table(table, target)
    assert load_table(target, names, list(standard_predicates())) == table


def test_tsv_round_trip(tmp_path):
    corpus = [complete(4), cycle(5), complete(1)]
    table = build_table(corpus, small_registry(), standard_predicates())
    target = tmp_path / "table.tsv"
    save_table(table, target)

    text = target.read_text()
    header = text.splitlines()[0].split("\t")
    assert header[0] == "label"
    assert "\t\t" in text or text.splitlines()[3].endswith("\t")  # missing cell empty

    back = load_table(target, list(small_registry()),
                      list(standard_predicates()))
    assert back == table


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x1c", "\x0b"])
def test_label_holding_a_line_separator_round_trips(tmp_path, monkeypatch,
                                                    separator):
    # only "\n" ends a line of a table file, so a label holding any other
    # line separator reads back and the cache hits
    corpus = [replace(complete(4), label=f"a{separator}b"), cycle(5)]
    inv, pred = small_registry(), standard_predicates()
    table = load_or_build_table(corpus, tmp_path, inv, pred)
    assert table.labels == (f"a{separator}b", "C5")
    assert load_table(features.cache_file(corpus, tmp_path), list(inv),
                      list(pred)) == table
    monkeypatch.setattr(features, "build_table", None)
    assert load_or_build_table(corpus, tmp_path, inv, pred) == table


@pytest.mark.parametrize("separator", ["\t", "\n", "\r"])
def test_label_holding_a_tab_or_line_end_is_not_saved(tmp_path, separator):
    # no read could split such a label off, so no file is written
    corpus = [replace(complete(4), label=f"a{separator}b"), cycle(5)]
    table = build_table(corpus, small_registry(), standard_predicates())
    with pytest.raises(ConfigError, match=re.escape(repr(f"a{separator}b"))):
        save_table(table, tmp_path / "table.tsv")
    with pytest.raises(ConfigError):
        load_or_build_table(corpus, tmp_path, small_registry(),
                            standard_predicates())
    assert list(tmp_path.iterdir()) == []


def test_cache_reuse_and_rebuild(tmp_path):
    corpus = [complete(4), cycle(5)]
    inv = small_registry()
    pred = standard_predicates()
    first = load_or_build_table(corpus, tmp_path, inv, pred)
    cached = list(tmp_path.glob("*.tsv"))
    assert cached == [features.cache_file(corpus, tmp_path)]

    # reuse: loading gives the identical table
    again = load_or_build_table(corpus, tmp_path, inv, pred)
    assert again == first

    # a cache missing requested columns is rebuilt in place
    wider = dict(inv, size=standard_invariants()["size"])
    rebuilt = load_or_build_table(corpus, tmp_path, wider, pred)
    assert "size" in rebuilt.numeric
    assert load_table(cached[0], list(wider), list(pred)) == rebuilt

    # a cache cut at a line boundary is stale: rebuilt, not read as shorter
    lines = cached[0].read_text().splitlines(keepends=True)
    cached[0].write_text("".join(lines[:2]))
    assert load_or_build_table(corpus, tmp_path, wider, pred) == rebuilt
    assert load_table(cached[0], list(wider), list(pred)) == rebuilt

    # a different corpus gets its own cache file
    load_or_build_table([path(3)], tmp_path, inv, pred)
    assert len(list(tmp_path.glob("*.tsv"))) == 2


def plant_cells(cached, cells):
    """Overwrite cells of a cache file: (row index, column name) -> text."""
    header, *rows = [line.split("\t")
                     for line in cached.read_text().splitlines()]
    for (row, name), text in cells.items():
        rows[row][header.index(name)] = text
    cached.write_text("".join("\t".join(r) + "\n" for r in [header, *rows]))


@pytest.mark.parametrize("beside", [{}, {(1, "matching_number"): "x"}],
                         ids=["alone", "with-bad-numeric"])
@pytest.mark.parametrize("cell", ["TRUE", "1", ""])
def test_boolean_cache_cells_are_strict(tmp_path, cell, beside):
    # only true and false parse; any other Boolean cell is treated like a
    # non-integer numeric cell: its column is computed again and rewritten,
    # also when another bad column is what forced the rebuild
    corpus = [complete(4), cycle(5), path(4)]
    inv, pred = small_registry(), standard_predicates()
    good = load_or_build_table(corpus, tmp_path, inv, pred)
    assert good.boolean["cubic"] == (True, False, False)
    (cached,) = tmp_path.glob("*.tsv")
    text = cached.read_text()
    plant_cells(cached, {(0, "cubic"): cell, **beside})
    # load_table leaves each bad column out, as if the file lacked it
    loaded = load_table(cached, list(inv), list(pred))
    assert "cubic" not in loaded.boolean
    assert ("matching_number" in loaded.numeric) == (not beside)
    assert loaded.boolean["bipartite"] == good.boolean["bipartite"]
    assert load_or_build_table(corpus, tmp_path, inv, pred) == good
    assert cached.read_text() == text


@pytest.mark.parametrize("content, message", [
    (b"", "empty table file"),
    (b"order\tsize\n4\t6\n", "lacks a label column"),
    (b"label\torder\nK4\t4\t6\n", ":2: wrong cell count"),
    (b"label\torder\nK4\t4\xff\n", "not UTF-8 text"),
], ids=["empty", "no-label-column", "wrong-cell-count", "not-utf-8"])
def test_unreadable_cache_file_is_rebuilt(tmp_path, content, message):
    corpus = [complete(4), cycle(5)]
    inv, pred = small_registry(), standard_predicates()
    cached = features.cache_file(corpus, tmp_path)
    cached.write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_table(cached, list(inv), list(pred))
    fresh = build_table(corpus, inv, pred)
    assert load_or_build_table(corpus, tmp_path, inv, pred) == fresh
    assert load_table(cached, list(inv), list(pred)) == fresh


def test_cache_file_that_cannot_be_read_is_rebuilt(tmp_path, monkeypatch):
    corpus = [complete(4), cycle(5)]
    inv, pred = small_registry(), standard_predicates()
    cached = features.cache_file(corpus, tmp_path)
    save_table(build_table(corpus, inv, pred), cached)
    read_text = Path.read_text

    def refused(self, *args, **kwargs):
        if self == cached:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refused)
    with pytest.raises(ConfigError) as refusal:
        load_table(cached, list(inv), list(pred))
    assert str(refusal.value) == (f"cannot read table file {cached}: "
                                  f"{os.strerror(errno.EACCES)}")
    built = []
    monkeypatch.setattr(features, "build_table",
                        lambda *args: built.append(1) or build_table(*args))
    assert load_or_build_table(corpus, tmp_path, inv, pred) == \
        build_table(corpus, inv, pred)
    assert built == [1]


def test_read_lines_ends_a_line_at_a_line_feed_alone(tmp_path):
    target = tmp_path / "lines.txt"
    target.write_bytes("a\r\nb\rc\u2028d\x1ce\x85f\n\n".encode())
    assert read_lines(target, "text", ConfigError) == [
        (1, "a"), (2, "b"), (3, "c\u2028d\x1ce\x85f"), (4, "")]
    for content, lines in ((b"", []), (b"\n", [(1, "")]), (b"x", [(1, "x")])):
        target.write_bytes(content)
        assert read_lines(target, "text", ConfigError) == lines
    target.write_bytes(b"\xff\n")
    with pytest.raises(ConfigError, match="^cannot read text .*: not UTF-8 "
                                          "text$"):
        read_lines(target, "text", ConfigError)
    with pytest.raises(ValueError, match="^cannot read text .*: "):
        read_lines(tmp_path / "absent", "text", ValueError)


@pytest.mark.parametrize("labels, numeric, boolean, message", [
    ((), {}, {}, "empty corpus"),
    (("a", "b"), {"x": (1,)}, {}, "column 'x' has wrong length"),
    (("a",), {"x": (1,)}, {"x": (True,)},
     r"column names reused across kinds: \['x'\]"),
], ids=["empty-labels", "short-column", "numeric-and-boolean"])
def test_feature_table_rejects_malformed_columns(labels, numeric, boolean,
                                                 message):
    with pytest.raises(ConfigError, match=message):
        FeatureTable(labels, numeric, boolean)


def test_numeric_cells_parse_with_and_without_missing_values():
    # the all-integer fast path and the path with empty cells agree; a cell
    # is read only as save_table writes it, str(v), on either path
    table = FeatureTable(("a", "b", "c"),
                         {"x": (1, None, -3), "y": (0, 2, 10)},
                         {"p": (True, False, True)})
    assert features._parse_numeric(("1", "", "-3")) == table.numeric["x"]
    assert features._parse_numeric(("0", "2", "10")) == table.numeric["y"]
    for bad in (("1", "x"), ("", "1.5"), ("true",), ("+٤",), (" 4",), ("04",),
                ("4_0",), ("-0",), ("+4",), ("4 ",), ("", "04")):
        with pytest.raises(ValueError):
            features._parse_numeric(bad)


def test_narrower_request_reuses_wider_cache(tmp_path):
    corpus = [complete(4), cycle(5), path(4), complete(1)]
    wide = load_or_build_table(corpus, tmp_path)
    (cached,) = tmp_path.glob("*.tsv")
    before = cached.read_bytes()

    def not_computed(graph):
        raise AssertionError("a cached column was computed again")

    inv = {"order": not_computed, "total_domination_number": not_computed}
    pred = {"bipartite": not_computed}
    narrow = load_or_build_table(corpus, tmp_path, inv, pred)
    assert list(narrow.numeric) == ["order", "total_domination_number"]
    assert list(narrow.boolean) == ["bipartite"]
    for name in inv:
        assert narrow.numeric[name] == wide.numeric[name]
    assert narrow.boolean["bipartite"] == wide.boolean["bipartite"]
    assert narrow.labels == wide.labels
    assert cached.read_bytes() == before
    assert list(tmp_path.iterdir()) == [cached]

    # the wide request still finds every column
    assert load_or_build_table(corpus, tmp_path) == wide
    assert cached.read_bytes() == before


def test_narrow_requests_add_to_the_cache(tmp_path):
    corpus = read_graph6_file(Path(__file__).resolve().parent.parent
                              / "data" / "mixed_graphs.g6")
    inv = standard_invariants()
    computed = []

    def counted(name):
        def solver(graph):
            computed.append(name)
            return inv[name](graph)
        return solver

    def not_computed(graph):
        raise AssertionError("a cached column was computed again")

    alpha = {"independence_number": counted("independence_number"),
             "order": counted("order")}
    load_or_build_table(corpus, tmp_path, alpha, {})
    (cached,) = tmp_path.glob("*.tsv")
    # the second request computes only the column the file lacks, and the
    # file keeps its old columns
    computed.clear()
    mu = load_or_build_table(corpus, tmp_path, {
        "matching_number": counted("matching_number"),
        "order": not_computed}, {})
    assert set(computed) == {"matching_number"}
    assert cached.read_text().split("\n", 1)[0].split("\t") == \
        ["label", "independence_number", "order", "matching_number"]
    assert mu.numeric["matching_number"] == \
        tuple(inv["matching_number"](g) for g in corpus)

    # a third request for alpha calls no solver
    again = load_or_build_table(
        corpus, tmp_path, {"independence_number": not_computed,
                           "order": not_computed}, {})
    assert again.numeric["independence_number"] == \
        tuple(inv["independence_number"](g) for g in corpus)
    assert list(tmp_path.iterdir()) == [cached]

    # a wider request that adds a predicate keeps all three columns
    load_or_build_table(corpus, tmp_path, {"independence_number": not_computed,
                                           "order": not_computed},
                        {"bipartite": standard_predicates()["bipartite"]})
    assert load_table(cached, ["independence_number", "order",
                               "matching_number"], ["bipartite"]) == \
        build_table(corpus, {name: inv[name] for name in
                             ("independence_number", "order",
                              "matching_number")},
                    {"bipartite": standard_predicates()["bipartite"]})


@pytest.mark.parametrize("writer", ["save_table", "write_export"])
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch,
                                                         writer):
    table = build_table([complete(4), cycle(5)], small_registry(),
                        standard_predicates())
    conjectures = generate(table, EngineConfig(targets=("order",),
                                               min_support=1))
    target = tmp_path / "out"
    target.write_text("old content\n")

    def disk_full(self, text, *args, **kwargs):
        # half the text reaches the disk, then the write fails
        with open(self, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full)
    with pytest.raises(OSError, match="No space left"):
        if writer == "save_table":
            save_table(table, target)
        else:
            write_export(conjectures, target)
    monkeypatch.undo()
    assert target.read_text() == "old content\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]

    # the same write succeeds once the disk has room, still leaving one file
    if writer == "save_table":
        save_table(table, target)
        assert load_table(target, list(small_registry()),
                          list(standard_predicates())) == table
    else:
        write_export(conjectures, target)
        assert len(target.read_text().splitlines()) == len(conjectures)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 12))
    names = ("p", "q", "r")
    boolean = {name: tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
               for name in names}
    cells = st.one_of(st.none(), st.integers(0, 3))
    numeric = {name: tuple(draw(st.lists(cells, min_size=n, max_size=n)))
               for name in ("x", "y")}
    return FeatureTable(tuple(f"g{i}" for i in range(n)), numeric, boolean)


@settings(max_examples=100, deadline=None)
@given(random_tables())
def test_support_and_selection_match_brute_force(table):
    names = sorted(table.boolean)
    for picked in product([False, True], repeat=len(names)):
        h = Hypothesis(name for name, keep in zip(names, picked) if keep)
        want = {i for i in range(table.n_rows)
                if all(table.boolean[name][i] for name in h.predicates)}
        support = table.support(h)
        assert set(mask_rows(support)) == want
        assert support >> table.n_rows == 0

        # one point per distinct (x, y) over the selected rows with both
        # values, in (x, y) order
        xs, ys = table.numeric["x"], table.numeric["y"]
        kept = [i for i in sorted(want) if xs[i] is not None and ys[i] is not None]
        points = table.select_rows(support, "x", "y")
        assert [(x, y) for x, y, _ in points] == \
            sorted({(xs[i], ys[i]) for i in kept})
        for x, y, rows in points:
            assert set(mask_rows(rows)) == \
                {i for i in kept if (xs[i], ys[i]) == (x, y)}
