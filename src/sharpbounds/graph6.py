"""graph6 text serialization (short form, order <= 62).

The format packs the upper triangle of the adjacency matrix, column by
column, six bits per printable character (values 63..126). One graph per
line; an optional ``>>graph6<<`` prefix is tolerated and skipped. Missing
trailing characters decode as zero bits, so slightly truncated strings from
hand-written sources still load; extra characters are rejected.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import CorpusError, Graph6Error, UnsupportedSizeError
from .graphs import Graph

_HEADER = ">>graph6<<"


def parse_graph6(line: str, label: str | None = None) -> Graph:
    """Decode one graph6 string into a :class:`Graph` with ``label``."""
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
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


def read_graph6_file(path: str | os.PathLike) -> list[Graph]:
    """Read a one-graph-per-line graph6 file, labeling each graph.

    Labels are the file stem for a single-graph file, otherwise
    ``<stem>#<k>`` for the k-th graph (from 1): blank lines are skipped and
    not counted. A decoding failure reports the offending line number. Each
    graph is decoded and checked once, with its label.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {p}: {exc}") from exc
    except UnicodeDecodeError:
        raise CorpusError(f"cannot read corpus {p}: not UTF-8 text") from None

    entries = [(lineno, raw) for lineno, raw in enumerate(text.splitlines(), 1)
               if raw.strip()]

    graphs = []
    for k, (lineno, raw) in enumerate(entries, start=1):
        label = p.stem if len(entries) == 1 else f"{p.stem}#{k}"
        try:
            graphs.append(parse_graph6(raw, label))
        except (Graph6Error, UnsupportedSizeError) as exc:
            raise CorpusError(f"{p.name}:{lineno}: {exc}") from exc
    return graphs


def write_graph6_file(graphs, path: str | os.PathLike) -> None:
    """Write graphs one per line in canonical graph6."""
    Path(path).write_text("".join(to_graph6(g) + "\n" for g in graphs))
