"""graph6 text serialization (short form, order <= 62).

The format packs the upper triangle of the adjacency matrix, column by
column, six bits per printable character (values 63..126). One graph per
line; an optional ``>>graph6<<`` prefix is tolerated and skipped. Missing
trailing characters decode as zero bits, so slightly truncated strings from
hand-written sources still load; extra characters are rejected.

A corpus file is read by :class:`Graph6Corpus`, which labels every graph and
keeps its stripped line up front but decodes the lines only when a graph is
first asked for. A feature table found in the cache is keyed by those labels
and lines, so it is served without decoding anything;
:func:`read_graph6_file` is the same reader, decoded at once.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from functools import cached_property
from pathlib import Path

from .errors import CorpusError, Graph6Error, UnsupportedSizeError
from .graphs import Graph
from .textio import read_lines

_HEADER = ">>graph6<<"


def parse_graph6(line: str, label: str | None = None) -> Graph:
    """Decode one graph6 string into a :class:`Graph` with ``label``."""
    return _decode(_strip(line), label)


def _strip(line: str) -> str:
    # the graph6 string of a line: surrounding whitespace and one
    # ``>>graph6<<`` prefix removed
    s = line.strip()
    return s[len(_HEADER):] if s.startswith(_HEADER) else s


def _decode(s: str, label: str | None) -> Graph:
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        raise UnsupportedSizeError("long-form graph6 (order > 62) is not supported")
    if not 63 <= first <= 125:
        raise Graph6Error(f"length byte {s[0]!r} out of range", 0)
    n = first - 63
    if n < 1:
        raise Graph6Error("graph of order 0 is not representable", 0)

    need = n * (n - 1) // 2
    max_chars = (need + 5) // 6
    data = s[1:]
    if len(data) > max_chars:
        raise Graph6Error("trailing data after adjacency bits", 1 + max_chars)

    bits = 0
    for pos, ch in enumerate(data):
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise Graph6Error(f"data byte {ch!r} out of range", 1 + pos)
        bits = (bits << 6) | value
    nbits = 6 * len(data)

    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if k < nbits and bits >> (nbits - 1 - k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows), label)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a canonical short-form graph6 string."""
    n = g.order
    if n > 62:
        raise UnsupportedSizeError(f"order {n} exceeds the short-form limit of 62")
    out = [chr(63 + n)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (g.adjacency[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


class Graph6Corpus(Sequence):
    """The labeled graphs of a one-graph-per-line graph6 file, decoded on
    first access.

    The lines are read once, when the corpus is made, by
    :func:`~sharpbounds.textio.read_lines` with :class:`CorpusError`. Blank
    lines are skipped and not counted. ``labels`` are the file stem for a
    single-graph file, otherwise ``<stem>#<k>`` for the k-th graph (from 1);
    ``lines`` are the graph6 strings, stripped and without ``>>graph6<<``
    prefix. Both are there without decoding, and :func:`features.corpus_digest
    <sharpbounds.features.corpus_digest>` keys the table cache on them.
    Indexing or iterating decodes and checks every line once, in order; a
    decoding failure raises :class:`CorpusError` naming ``file:line``.
    """

    def __init__(self, path: str | os.PathLike):
        p = Path(path)
        entries = [(lineno, raw) for lineno, raw
                   in read_lines(p, "corpus", CorpusError) if raw.strip()]
        self._name = p.name
        self._linenos = tuple(lineno for lineno, _ in entries)
        self.lines = tuple(_strip(raw) for _, raw in entries)
        stem = p.stem
        self.labels = ((stem,) if len(entries) == 1 else
                       tuple(f"{stem}#{k}" for k in range(1, len(entries) + 1)))

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, index):
        return self.graphs[index]

    def __iter__(self):
        return iter(self.graphs)

    @cached_property
    def graphs(self) -> tuple[Graph, ...]:
        """Every graph, decoded and checked once."""
        graphs = []
        for lineno, line, label in zip(self._linenos, self.lines, self.labels):
            try:
                graphs.append(_decode(line, label))
            except (Graph6Error, UnsupportedSizeError) as exc:
                raise CorpusError(f"{self._name}:{lineno}: {exc}") from exc
        return tuple(graphs)


def read_graph6_file(path: str | os.PathLike) -> list[Graph]:
    """Every graph of :class:`Graph6Corpus` ``(path)``, decoded at once."""
    return list(Graph6Corpus(path))


def write_graph6_file(graphs, path: str | os.PathLike) -> None:
    """Write graphs one per line in canonical graph6."""
    Path(path).write_text("".join(to_graph6(g) + "\n" for g in graphs))
