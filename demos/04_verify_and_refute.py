#!/usr/bin/env python3
"""Exporting conjectures and hunting for counterexamples on fresh corpora.

A check reads the claim's hypothesis off a table of predicate values over
the corpus, built once and shared by every claim, and solves the claim's
two invariants only on the graphs satisfying it. The command line's
``verify`` does the same, with the predicates its export records name.

Run from the repository root:  python3 demos/04_verify_and_refute.py
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sharpbounds import (
    Conjecture,
    Hypothesis,
    SharpBoundingFunction,
    build_table,
    check_conjecture,
    read_graph6_file,
    standard_invariants,
    standard_predicates,
    write_export,
)
from sharpbounds.cli import main


def claim(target, other, slope, intercept, hypothesis):
    return Conjecture(
        target=target, other=other,
        hypothesis=Hypothesis(hypothesis),
        # slope and intercept are (numerator, denominator) pairs
        bound=SharpBoundingFunction((slope, 1), (intercept, 1), "upper"),
        touch_set=frozenset({"claimed"}), touch_number=1, support_size=1)


mixed = ROOT / "data" / "mixed_graphs.g6"
corpus = read_graph6_file(mixed)
invariants = standard_invariants()
# one row per graph, one column per predicate, no invariant columns
table = build_table(corpus, {}, standard_predicates())

print("== a confirmed bound survives a mixed corpus ==")
good = claim("zero_forcing_number", "vertex_cover_number", 1, 0, ("claw-free",))
witness, _ = check_conjecture(good, corpus, invariants, table)
print(f"{good.statement}: counterexample -> {witness}")

print()
print("== a false claim is pinned to a concrete graph ==")
bad = claim("independence_number", "min_degree", 1, 0, ("connected",))
witness, _ = check_conjecture(bad, corpus, invariants, table)
label, lhs, rhs = witness
print(f"{bad.statement}: fails on {label} with α = {lhs} > {rhs}")

print()
print("== the same flow through the command line ==")
with tempfile.TemporaryDirectory() as tmp:
    export = Path(tmp) / "claims.jsonl"
    write_export([good, bad], export)
    code = main(["verify", str(export), str(mixed)])
print(f"exit status {code} (nonzero because a counterexample was found)")
