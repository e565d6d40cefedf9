import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpbounds import (
    CorpusError,
    Graph,
    Graph6Corpus,
    Graph6Error,
    UnsupportedSizeError,
    complete,
    cycle,
    parse_graph6,
    petersen,
    read_graph6_file,
    to_graph6,
    write_graph6_file,
)

from conftest import random_graph


def test_smallest_graphs():
    g = parse_graph6("@")
    assert g.order == 1 and g.size == 0
    g = parse_graph6("A_")
    assert g.order == 2 and g.size == 1
    assert to_graph6(complete(1)) == "@"
    assert to_graph6(complete(2)) == "A_"


def test_truncated_empty_graph_decodes():
    # "D?" leaves four of the ten adjacency bits implicit; they read as zero.
    g = parse_graph6("D?")
    assert g.order == 5 and g.size == 0
    # the canonical encoding is full length and round-trips
    assert to_graph6(g) == "D??"
    assert parse_graph6("D??") == g


def test_cycle5_round_trip():
    c5 = cycle(5)
    line = to_graph6(c5)
    assert parse_graph6(line) == c5


def test_header_tolerated():
    assert parse_graph6(">>graph6<<A_").size == 1


def test_parse_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("=")  # length byte below the printable range
    with pytest.raises(Graph6Error):
        parse_graph6("?")  # order zero
    with pytest.raises(Graph6Error):
        parse_graph6("A_?")  # trailing data
    err = None
    try:
        parse_graph6("D!")  # '!' is printable but below the graph6 range
    except Graph6Error as exc:
        err = exc
    assert err is not None and err.offset == 1


def test_long_form_rejected():
    with pytest.raises(UnsupportedSizeError):
        parse_graph6("~??")
    with pytest.raises(UnsupportedSizeError):
        to_graph6(Graph(63, tuple([0] * 63)))


def test_order_62_round_trips():
    g = complete(62)
    assert parse_graph6(to_graph6(g)) == g


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_round_trip_random(data):
    n = data.draw(st.integers(1, 14))
    bits = data.draw(st.lists(st.booleans(),
                              min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2))
    edges = [e for e, keep in zip(combinations(range(n), 2), bits) if keep]
    g = Graph.from_edges(n, edges)
    assert parse_graph6(to_graph6(g)) == g


def test_file_round_trip(tmp_path):
    rng = random.Random(7)
    graphs = [random_graph(rng, rng.randint(1, 9)) for _ in range(12)]
    target = tmp_path / "suite.g6"
    write_graph6_file(graphs, target)
    back = read_graph6_file(target)
    assert [g.adjacency for g in back] == [g.adjacency for g in graphs]
    assert back[0].label == "suite#1"
    assert len({g.label for g in back}) == len(back)


def test_single_graph_file_uses_stem(tmp_path):
    target = tmp_path / "petersen.g6"
    write_graph6_file([petersen()], target)
    (g,) = read_graph6_file(target)
    assert g.label == "petersen"
    assert g == petersen()


def test_file_errors_name_the_line(tmp_path):
    target = tmp_path / "bad.g6"
    target.write_text("A_\n\nA_?\n")
    with pytest.raises(CorpusError, match="bad.g6:3"):
        read_graph6_file(target)


def test_blank_lines_and_header_skipped(tmp_path):
    target = tmp_path / "h.g6"
    target.write_text(">>graph6<<A_\n\nA?\nBw\n")
    graphs = read_graph6_file(target)
    assert [g.size for g in graphs] == [1, 0, 3]
    # labels number the graphs, not the lines: Bw sits on line 4
    assert [g.label for g in graphs] == ["h#1", "h#2", "h#3"]


def test_corpus_lines_and_labels_come_before_decoding(tmp_path):
    target = tmp_path / "lazy.g6"
    target.write_text(" >>graph6<<A_ \n\n>>graph6<<>>graph6<<A_\nBw\t\n")
    corpus = Graph6Corpus(target)
    assert corpus.lines == ("A_", ">>graph6<<A_", "Bw")
    assert corpus.labels == ("lazy#1", "lazy#2", "lazy#3")
    assert len(corpus) == 3
    # decoding starts at the first access and names the file line
    with pytest.raises(CorpusError, match="lazy.g6:3: "):
        corpus[0]
    with pytest.raises(CorpusError, match="lazy.g6:3: "):
        read_graph6_file(target)
