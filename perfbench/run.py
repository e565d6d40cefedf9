"""Seeded benchmark of the sharpbounds command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Every op calls ``sharpbounds.cli.main(argv)`` in this process, with stdout
captured, from one thread. ``--trace 0`` runs the closed loop until the ops
have taken ``--seconds`` reference seconds (whole rounds for ``sweep``) and
reports the end-to-end metrics. ``--trace 1`` repeats a fixed, seeded list of
ops, untraced and then traced, for as long, and reports the per-layer metrics
of the traced passes. The last line of stdout is the result as one JSON
object. ``--smoke`` runs every workload once at its smallest size in both
modes and checks the metric names.

The run writes only under ``.perfbench/`` in the checkout: a scratch
directory that is removed at exit, and ``out/`` with the run record (seed,
corpus digests, raw op times, failures, per-pass figures) and, for traced
runs, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# Set-up is repeated and its median reported; refute's set-up is a full
# all-target generation run, so it repeats fewer times.
SETUP_REPEATS = {"sweep": 5, "tabulate": 5, "refute": 3}
TAIL_BEYOND = 10
# A run also ends after this many times --seconds of wall time, whatever the
# probe says, so it always finishes.
WALL_CAP = 3


class ProgramMissing(Exception):
    pass


def load_program():
    """Import sharpbounds from this checkout's ``src/`` and nowhere else."""
    init = SRC / "sharpbounds" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no sharpbounds package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import sharpbounds
    if Path(sharpbounds.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"sharpbounds imported from {sharpbounds.__file__}")
    for needed in ("data/cubic_connected_4_10.g6", "data/mixed_graphs.g6",
                   "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            raise ProgramMissing(f"missing {needed}")


# ---------------------------------------------------------------------------
# Reference seconds
# ---------------------------------------------------------------------------

# On a shared host the speed of one core drifts by 10-20% over tens of
# seconds, so raw wall times of one program differ between runs by more than
# any useful bound. A fixed kernel owned by the benchmark runs between timed
# pieces (ops, set-ups); each piece's wall time is scaled by
# REF_KERNEL_S / (median kernel time around it). Times are thus reported in
# reference seconds: wall seconds on a machine where one probe sample takes
# REF_KERNEL_S. Raw wall times stay in the run record.
REF_KERNEL_S = 0.012
OP_WINDOW = 2  # probe samples on each side of an op
_KERNEL_ROWS = tuple((0b1011011 * (i + 3) + i) & 0x7F for i in range(7))


def _kernel() -> None:
    """Bit-mask search over a 7-vertex graph, like the exact solvers' loops.

    Every int it makes is below 257, so CPython takes them from its small-int
    cache: the kernel allocates nothing, and the state of the program's heap
    cannot change its speed.
    """
    rows = _KERNEL_ROWS
    count = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                mask = rows[a] | rows[b] | rows[c]
                while mask:
                    mask &= mask - 1
                    count ^= 1


class SpeedProbe:
    """Probe samples taken before the first timed piece and after each one.

    ``groups[i]`` holds the samples taken just before piece ``i``; the last
    group follows the last piece. A piece's scale uses the ``window`` groups
    on each side of it.
    """

    REPEATS = 100  # kernel calls per sample, about REF_KERNEL_S of work

    def __init__(self, window: int, per_gap: int = 1):
        self.window = window
        self.per_gap = per_gap
        self.groups: list[list[float]] = []
        self.sample()

    def sample(self) -> None:
        group = []
        for _ in range(self.per_gap):
            start = perf_counter()
            for _ in range(self.REPEATS):
                _kernel()
            group.append(perf_counter() - start)
        self.groups.append(group)

    def factor(self, i: int) -> float:
        """Piece i's scale: REF_KERNEL_S / median of the samples around it."""
        near = self.groups[max(i + 1 - self.window, 0):i + 1 + self.window]
        return REF_KERNEL_S / statistics.median(t for group in near for t in group)

    def factors(self) -> list[float]:
        return [self.factor(i) for i in range(len(self.groups) - 1)]


class Clock:
    """Runs timed ops and keeps a running total of their reference seconds."""

    def __init__(self, cli, seconds: float):
        self.cli = cli
        self.seconds = seconds
        self.probe = SpeedProbe(OP_WINDOW)
        self.results = []
        self.ref_elapsed = 0.0
        self.wall_start = perf_counter()

    def run(self, op, tracer=None):
        result = execute(op, self.cli, tracer, len(self.results))
        self.results.append(result)
        self.probe.sample()
        self.ref_elapsed += result.seconds * self.probe.factor(len(self.results) - 1)
        return result

    def done(self) -> bool:
        return (self.ref_elapsed >= self.seconds
                or perf_counter() - self.wall_start >= WALL_CAP * max(self.seconds, 1))


def execute(op, cli, tracer=None, op_id=None):
    """One timed op: a single in-process CLI call."""
    from workloads import Result
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.begin_op(op_id)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed op, not a failed benchmark
        rc = None
        error = traceback.format_exc()
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if error is None and err.getvalue():
        error = err.getvalue()
    return Result(op, seconds, rc, out.getvalue(), error)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND ops beyond it, and its rank."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(times: list[float], setups: list[float], rss_mb: float) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail(times)[0], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def metric_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".calls") or name == "fitting.points":
        return "count"
    return "ratio"


def per_layer(tracer, pass_ranges, times, factors, failures):
    """Per-layer metrics over the traced passes, and any count mismatch."""
    from spans import count_metric_names, layer_metrics
    passes = []
    for plain, traced, end in pass_ranges:
        layers = layer_metrics(tracer.spans, set(range(traced, end)))
        scale = statistics.median(factors[traced:end])
        for key in layers:
            if metric_unit(key) == "s":
                layers[key] *= scale
        passes.append({"untraced_s": sum(times[plain:traced]),
                       "traced_s": sum(times[traced:end]), "layers": layers})

    counts = set(count_metric_names())
    mismatches = []
    metrics = {}
    for key in passes[0]["layers"]:
        values = [p["layers"][key] for p in passes]
        if key in counts and len(set(values)) != 1:
            mismatches.append(f"{key} differs between passes: {values}")
        value = values[0] if key in counts else statistics.median(values)
        metrics[key] = (value, metric_unit(key))
    metrics["trace.overhead_ratio"] = (statistics.median(
        p["traced_s"] / p["untraced_s"] for p in passes), "ratio")
    metrics["fail_ratio"] = (len(failures) / len(times), "ratio")
    return metrics, mismatches, passes


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    from sharpbounds import cli
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT, seed, smoke)
    base = ROOT / ".perfbench"
    work = base / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "smoke": smoke}
    try:
        # Set-ups are long and few, so more samples are taken between them.
        setup_probe = SpeedProbe(window=1, per_gap=5)
        setup_times = []
        for k in range(1 if smoke else SETUP_REPEATS[name]):
            (work / f"setup{k}").mkdir(parents=True)
            start = perf_counter()
            wl.setup(work / f"setup{k}")
            setup_times.append(perf_counter() - start)
            setup_probe.sample()
        setup_factors = setup_probe.factors()
        setups = [t * f for t, f in zip(setup_times, setup_factors)]

        clock = Clock(cli, seconds)
        if not trace:
            i = 0
            while True:
                clock.run(wl.op(i))
                i += 1
                if i % wl.round_size == 0 and clock.done():
                    break
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            tracer = Tracer()
            pass_ranges = []
            pass_of: dict[int, int] = {}
            while True:
                plain = len(clock.results)
                for i in range(wl.traced_ops):
                    clock.run(wl.op(i))
                traced = len(clock.results)
                with tracer:
                    for i in range(wl.traced_ops):
                        pass_of[len(clock.results)] = len(pass_ranges)
                        clock.run(wl.op(i), tracer)
                pass_ranges.append((plain, traced, len(clock.results)))
                if clock.done():
                    break

        results = clock.results
        failures = wl.check(results)
        raw = [r.seconds for r in results]
        factors = clock.probe.factors()
        times = [t * f for t, f in zip(raw, factors)]
        record.update({
            "ops": len(results),
            "op_seconds": [[r.op.key, r.seconds] for r in results],
            "speed_factors": factors,
            "probe_s": clock.probe.groups,
            "setup_s_each": setup_times,
            "setup_speed_factors": setup_factors,
            "corpus_digests": wl.digests,
            "inputs_digest": _digest(f"{k} {v}" for k, v in sorted(wl.digests.items())),
            "op_keys_digest": _digest(r.op.key for r in results),
        })

        mismatches = []
        if not trace:
            metrics = end_to_end(times, setups, rss_mb)
            record["tail_percentile"] = tail(times)[1]
            record["raw_wall_metrics"] = {
                k: v for k, (v, _) in end_to_end(raw, setup_times, rss_mb).items()}
        else:
            metrics, mismatches, record["passes"] = per_layer(
                tracer, pass_ranges, times, factors, failures)
            out_dir = base / "out"
            out_dir.mkdir(parents=True, exist_ok=True)
            spans_path = out_dir / f"{name}-seed{seed}.spans.tsv.gz"
            tracer.write(spans_path, pass_of)
            record["spans"] = str(spans_path.relative_to(ROOT))

        record["failures"] = [f"op {pos}: {msg}" for pos, msg in sorted(failures.items())]
        record["failures"] += mismatches
        result = {
            "correct": not record["failures"],
            "attempted": len(results),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_record(record: dict) -> Path:
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (f"{record['workload']}-seed{record['seed']}"
                      f"-trace{record['trace']}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def smoke() -> int:
    """Every workload once, smallest size, both modes; metric names checked."""
    from workloads import WORKLOADS
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(name, 1, 0, bool(trace), smoke=True)
            write_record(record)
            emitted = set(result["metrics"])
            problems = [f"bad name {n!r}" for n in sorted(emitted)
                        if not NAME_RE.fullmatch(n)]
            if emitted != declared[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"extra {sorted(emitted - declared[trace])}, "
                                f"missing {sorted(declared[trace] - emitted)}")
            problems += record["failures"]
            ok &= not problems
            print(f"smoke {name} trace={trace}: {result['attempted']} ops, "
                  f"{'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "tabulate", "refute"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at its smallest size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    path = write_record(record)
    for failure in record["failures"][:5]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    tail_note = (f" tail=p{record['tail_percentile']:.2f} of {record['ops']} ops"
                 if "tail_percentile" in record else "")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={record['ops']}{tail_note} inputs={record['inputs_digest'][:16]} "
          f"record={path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
