"""The benchmark workloads: set-up, op inputs and output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned. An op is one ``sharpbounds.cli.main(argv)`` call.

- ``sweep`` loads the fitting sweep: one ``conjecture`` call per (bundled
  corpus, target), every pair in a seeded order per round, against a table
  cache warmed at set-up, so no solver runs.
- ``tabulate`` loads the exact solvers: one ``conjecture`` call with a tiny
  fit (Z, upper, hypotheses of size <= 1) on a fresh order 13..16 corpus with
  a fresh, empty cache, so every invariant is computed and the cache written.
- ``refute`` loads the solvers through ``verify``: the 133-record export of
  the mixed-corpus all-target run is checked against a fresh corpus of twelve
  order 9..11 graphs, so each solver runs once per (record, graph).

Checks run after the timed loop; an op fails when any check on it fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import corpora
from sharpbounds import cli
from sharpbounds.features import build_table, corpus_digest
from sharpbounds.graph6 import read_graph6_file, write_graph6_file
from sharpbounds.invariants import standard_invariants

TARGETS = tuple(standard_invariants())
CUBIC = "data/cubic_connected_4_10.g6"
MIXED = "data/mixed_graphs.g6"
SWEEP_FLAGS = ("--directions", "upper,lower", "--max-hypothesis-size", "3",
               "--filters", "both")


@dataclass
class Op:
    key: str
    argv: list[str]
    extra: dict = field(default_factory=dict)


@dataclass
class Result:
    op: Op
    seconds: float
    rc: int | None
    stdout: str
    error: str | None


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI untimed (set-up and checks), returning (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def write_corpus(graphs, path: Path) -> str:
    write_graph6_file(graphs, path)
    return corpus_digest(graphs)


class Workload:
    """Base: ``setup`` may run several times; the last set-up is used."""

    name = ""
    round_size = 1      # the loop only stops between whole rounds
    traced_ops = 1      # ops in one pass of a traced run

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.digests: dict[str, str] = {}

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, results: list[Result]) -> dict[int, str]:
        """Map result position -> first failure message."""
        raise NotImplementedError


def _basic_failure(r: Result, allowed_rc=(0,)) -> str | None:
    if r.error is not None:
        return f"{r.op.key}: {r.error.strip().splitlines()[-1]}"
    if r.rc not in allowed_rc:
        return f"{r.op.key}: exit code {r.rc}"
    return None


def _header_count(stdout: str, n_graphs: int) -> int | None:
    """Conjecture count from the text listing header, or None if malformed."""
    header = re.match(rf"# (\d+) conjectures from {n_graphs} graphs\n", stdout)
    if header is None or stdout.count("\n") != int(header[1]) + 1:
        return None
    return int(header[1])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class Sweep(Workload):
    name = "sweep"

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        targets = TARGETS[4:5] if smoke else TARGETS
        # A round runs every mixed-corpus pair twice and every cubic pair
        # once. Cubic ops take about half as long as mixed ones; with equal
        # shares the median would fall in the gap between the two modes and
        # swing with their extremes.
        self.pairs = [(CUBIC, t) for t in targets] + [(MIXED, t) for t in targets] * 2
        self.round_size = self.traced_ops = len(self.pairs)
        graphs = {c: read_graph6_file(root / c) for c in (CUBIC, MIXED)}
        self.sizes = {c: len(g) for c, g in graphs.items()}
        self.digests = {Path(c).stem: corpus_digest(g) for c, g in graphs.items()}
        self._orders: dict[int, list[int]] = {}

    def setup(self, work):
        self.cache = work / "cache"
        self.exports = work / "exports"
        self.exports.mkdir()
        for c in (CUBIC, MIXED):
            rc, _ = call_cli(["invariants", str(self.root / c), "--cache", str(self.cache)])
            if rc != 0:
                raise RuntimeError(f"warming the table cache for {c} failed")
        self._orders.clear()
        self.runs = 0

    def op(self, index):
        rnd, k = divmod(index, len(self.pairs))
        if rnd not in self._orders:
            self._orders[rnd] = corpora.sweep_order(self.seed, rnd, len(self.pairs))
        corpus, target = self.pairs[self._orders[rnd][k]]
        self.runs += 1
        export = self.exports / f"run{self.runs}.jsonl"
        argv = ["conjecture", "--corpus", str(self.root / corpus), "--targets", target,
                *SWEEP_FLAGS, "--cache", str(self.cache), "--export", str(export)]
        return Op(f"{Path(corpus).stem}/{target}", argv,
                  {"corpus": corpus, "export": export})

    def check(self, results):
        failures: dict[int, str] = {}
        first: dict[str, int] = {}
        for pos, r in enumerate(results):
            msg = _basic_failure(r)
            if msg is None and _header_count(r.stdout, self.sizes[r.op.extra["corpus"]]) is None:
                msg = f"{r.op.key}: malformed listing"
            if msg is None and not r.op.extra["export"].is_file():
                msg = f"{r.op.key}: no export written"
            if msg is None:
                r.op.extra["export_text"] = r.op.extra["export"].read_text()
                head = first.setdefault(r.op.key, pos)
                if r.stdout != results[head].stdout \
                        or r.op.extra["export_text"] != results[head].op.extra["export_text"]:
                    msg = f"{r.op.key}: output differs from the first run of this op"
            if msg is not None:
                failures[pos] = msg

        for key, head in first.items():
            if head in failures:
                continue
            msg = self._reverify(results[head])
            if msg is not None:
                for pos, r in enumerate(results):
                    if r.op.key == key:
                        failures.setdefault(pos, msg)
        return failures

    def _reverify(self, r: Result) -> str | None:
        """The export must hold on its own corpus with its exported touch numbers."""
        records = [json.loads(line) for line in r.op.extra["export_text"].splitlines()]
        if len(records) != _header_count(r.stdout, self.sizes[r.op.extra["corpus"]]):
            return f"{r.op.key}: export and listing disagree"
        rc, out = call_cli(["verify", str(r.op.extra["export"]),
                            str(self.root / r.op.extra["corpus"])])
        expected = [f"HOLDS touch={rec['touch_number']} {rec['statement']}" for rec in records]
        if rc != 0 or out.splitlines() != expected:
            return f"{r.op.key}: export does not re-verify on its own corpus"
        return None


# ---------------------------------------------------------------------------
# tabulate
# ---------------------------------------------------------------------------

def _networkx_reference(graphs) -> list[tuple[int, int]]:
    """(alpha, mu) per graph, computed by networkx."""
    import networkx as nx
    out = []
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.order))
        G.add_edges_from(g.edges())
        alpha = nx.max_weight_clique(nx.complement(G), weight=None)[1]
        mu = len(nx.max_weight_matching(G, maxcardinality=True))
        out.append((alpha, mu))
    return out


class Tabulate(Workload):
    name = "tabulate"
    traced_ops = 10
    pool = 48

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        if smoke:
            self.traced_ops = self.pool = 1
        self.graphs: dict[int, list] = {}

    def setup(self, work):
        self.work = work
        self.runs = 0
        self.graphs.clear()
        self.digests.clear()
        for i in range(self.pool):
            self._corpus(i)

    def _corpus(self, index: int) -> Path:
        stem = f"tab{index:05d}"
        path = self.work / f"{stem}.g6"
        if index not in self.graphs:
            graphs = corpora.tabulate_corpus(self.seed, index, stem)
            self.digests[stem] = write_corpus(graphs, path)
            self.graphs[index] = graphs
        return path

    def op(self, index):
        path = self._corpus(index)
        self.runs += 1
        cache = self.work / f"cache{self.runs}"   # fresh and empty every run
        argv = ["conjecture", "--corpus", str(path), "--targets", "Z",
                "--directions", "upper", "--max-hypothesis-size", "1",
                "--cache", str(cache)]
        return Op(path.stem, argv, {"index": index, "cache": cache})

    def check(self, results):
        failures: dict[int, str] = {}
        reference: dict[int, list] = {}
        for pos, r in enumerate(results):
            index = r.op.extra["index"]
            graphs = self.graphs[index]
            msg = _basic_failure(r)
            if msg is None and _header_count(r.stdout, len(graphs)) is None:
                msg = f"{r.op.key}: malformed listing"
            if msg is None:
                if index not in reference:
                    reference[index] = _networkx_reference(graphs)
                msg = self._check_table(r, graphs, reference[index])
            if msg is not None:
                failures[pos] = msg
        return failures

    def _check_table(self, r: Result, graphs, reference) -> str | None:
        cache: Path = r.op.extra["cache"]
        files = sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []
        if files != [f"{self.digests[r.op.key]}.tsv"]:
            return f"{r.op.key}: cache holds {files}, not the corpus digest table"
        lines = (cache / files[0]).read_text().splitlines()
        col = {name: k for k, name in enumerate(lines[0].split("\t"))}
        needed = ("order", "independence_number", "matching_number", "vertex_cover_number")
        if len(lines) != len(graphs) + 1 or not all(name in col for name in needed):
            return f"{r.op.key}: cached table has the wrong shape"
        for g, line, (alpha, mu) in zip(graphs, lines[1:], reference):
            cells = line.split("\t")
            got = {name: cells[col[name]] for name in needed}
            if cells[0] != g.label or got["order"] != str(g.order):
                return f"{r.op.key}: row {cells[0]} does not match {g.label}"
            a, m, b = (int(got[k]) for k in
                       ("independence_number", "matching_number", "vertex_cover_number"))
            if (a, m) != (alpha, mu) or a + b != g.order:
                return (f"{r.op.key}: {g.label} alpha={a} mu={m} beta={b}, "
                        f"networkx alpha={alpha} mu={mu}, n={g.order}")
        return None


# ---------------------------------------------------------------------------
# refute
# ---------------------------------------------------------------------------

ORACLE_COLUMNS = {
    "independence_number": "oracle_independence",
    "vertex_cover_number": "oracle_vertex_cover",
    "matching_number": "oracle_matching",
    "min_maximal_matching": "oracle_min_maximal_matching",
    "domination_number": "oracle_domination",
    "total_domination_number": "oracle_total_domination",
    "independent_domination_number": "oracle_independent_domination",
    "zero_forcing_number": "oracle_zero_forcing",
}


def _expected_verify(records, table) -> tuple[int, str]:
    """What ``verify`` must print, evaluated on a feature table."""
    lines = []
    failed = False
    for rec in records:
        m, b = Fraction(*rec["slope"]), Fraction(*rec["intercept"])
        upper = rec["direction"] == "upper"
        xs, ys = table.numeric[rec["other"]], table.numeric[rec["target"]]
        hyp = [table.boolean[name] for name in rec["hypothesis"]]
        touches = 0
        witness = None
        for i, label in enumerate(table.labels):
            if not all(col[i] for col in hyp) or xs[i] is None or ys[i] is None:
                continue
            rhs = m * xs[i] + b
            if (ys[i] > rhs) if upper else (ys[i] < rhs):
                witness = f"COUNTEREXAMPLE {label} lhs={Fraction(ys[i])} rhs={rhs}"
                break
            touches += ys[i] == rhs
        if witness is None:
            lines.append(f"HOLDS touch={touches} {rec['statement']}")
        else:
            lines.append(f"{witness} {rec['statement']}")
            failed = True
    return (1 if failed else 0), "".join(line + "\n" for line in lines)


class Refute(Workload):
    name = "refute"
    traced_ops = 10
    pool = 48

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        self.targets = TARGETS[4:6] if smoke else TARGETS
        if smoke:
            self.traced_ops = self.pool = 1
        self.graphs: dict[int, list] = {}

    def setup(self, work):
        self.work = work
        self.export = work / "mixed_all.jsonl"
        rc, _ = call_cli(["conjecture", "--corpus", str(self.root / MIXED),
                          "--targets", ",".join(self.targets), *SWEEP_FLAGS,
                          "--export", str(self.export)])
        if rc != 0:
            raise RuntimeError("producing the export to verify failed")
        self.graphs.clear()
        self.digests.clear()
        for i in range(self.pool):
            self._corpus(i)

    def _corpus(self, index: int) -> Path:
        stem = f"ref{index:05d}"
        path = self.work / f"{stem}.g6"
        if index not in self.graphs:
            graphs = corpora.refute_corpus(self.seed, index, stem)
            self.digests[stem] = write_corpus(graphs, path)
            self.graphs[index] = graphs
        return path

    def op(self, index):
        path = self._corpus(index)
        return Op(path.stem, ["verify", str(self.export), str(path)], {"index": index})

    def records(self) -> list[dict]:
        return [json.loads(line) for line in self.export.read_text().splitlines()]

    def check(self, results):
        tests_dir = str(self.root / "tests")
        if tests_dir not in sys.path:
            sys.path.insert(0, tests_dir)
        import oracles

        records = self.records()
        expected: dict[int, tuple[int, str] | str] = {}
        failures: dict[int, str] = {}
        for pos, r in enumerate(results):
            index = r.op.extra["index"]
            msg = _basic_failure(r, allowed_rc=(0, 1))
            if msg is None:
                if index not in expected:
                    expected[index] = self._reference(index, records, oracles)
                want = expected[index]
                if isinstance(want, str):
                    msg = want
                elif (r.rc, r.stdout) != want:
                    msg = f"{r.op.key}: verdicts or exit code differ from the table"
            if msg is not None:
                failures[pos] = msg
        return failures

    def _reference(self, index, records, oracles):
        graphs = self.graphs[index]
        table = build_table(graphs)
        for i, g in enumerate(graphs):
            if g.order > 10:
                continue
            for column, oracle_name in ORACLE_COLUMNS.items():
                want = getattr(oracles, oracle_name)(g)
                if table.numeric[column][i] != want:
                    return (f"{g.label}: {column}={table.numeric[column][i]}, "
                            f"oracle says {want}")
        return _expected_verify(records, table)


WORKLOADS = {w.name: w for w in (Sweep, Tabulate, Refute)}
