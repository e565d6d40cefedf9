from pathlib import Path

import pytest

from sharpbounds import (
    ConfigError,
    EngineConfig,
    Hypothesis,
    build_table,
    complete,
    corpus_digest,
    cycle,
    generate,
    load_or_build_table,
    load_table,
    path,
    save_table,
    standard_invariants,
    standard_predicates,
    write_export,
)


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

    assert table.support(Hypothesis()) == (0, 1, 2, 3)
    assert table.support(Hypothesis({"connected", "cubic"})) == (0,)
    assert table.support(Hypothesis({"bipartite"})) == (2, 3)

    rows = table.select_rows(table.support(Hypothesis()), "matching_number",
                             "independence_number")
    assert rows == [(2, 1, 0), (2, 2, 1), (3, 3, 2), (0, 1, 3)]

    # K1 has no total domination value, so its row is dropped
    rows = table.select_rows(table.support(Hypothesis()),
                             "total_domination_number", "independence_number")
    assert [r[2] for r in rows] == [0, 1, 2]


def test_select_rows_bipartite_keeps_even_cycle_only():
    table = build_table([cycle(5), cycle(6)], small_registry(),
                        standard_predicates())
    rows = table.select_rows(table.support(Hypothesis({"bipartite"})), "order",
                             "independence_number")
    assert rows == [(6, 3, 1)]


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
    assert set(table.support(h2)) <= set(table.support(h1))


def test_build_table_is_pure():
    corpus = [complete(4), cycle(5)]
    a = build_table(corpus, small_registry(), standard_predicates())
    b = build_table(corpus, small_registry(), standard_predicates())
    assert a == b


def test_table_needs_two_numeric_columns():
    inv = standard_invariants()
    with pytest.raises(ConfigError):
        build_table([complete(3)], {"order": inv["order"]},
                    standard_predicates())


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


def test_cache_reuse_and_rebuild(tmp_path):
    corpus = [complete(4), cycle(5)]
    inv = small_registry()
    pred = standard_predicates()
    first = load_or_build_table(corpus, tmp_path, inv, pred)
    cached = list(tmp_path.glob("*.tsv"))
    assert len(cached) == 1
    assert corpus_digest(corpus) in cached[0].name

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
