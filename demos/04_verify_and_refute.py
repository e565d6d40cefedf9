#!/usr/bin/env python3
"""Exporting conjectures and hunting for counterexamples on fresh corpora.

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
predicates = standard_predicates()

print("== a confirmed bound survives a mixed corpus ==")
good = claim("zero_forcing_number", "vertex_cover_number", 1, 0, ("claw-free",))
witness, _ = check_conjecture(good, corpus, invariants, predicates)
print(f"{good.statement}: counterexample -> {witness}")

print()
print("== a false claim is pinned to a concrete graph ==")
bad = claim("independence_number", "min_degree", 1, 0, ("connected",))
witness, _ = check_conjecture(bad, corpus, invariants, predicates)
label, lhs, rhs = witness
print(f"{bad.statement}: fails on {label} with α = {lhs} > {rhs}")

print()
print("== the same flow through the command line ==")
with tempfile.TemporaryDirectory() as tmp:
    export = Path(tmp) / "claims.jsonl"
    write_export([good, bad], export)
    code = main(["verify", str(export), str(mixed)])
print(f"exit status {code} (nonzero because a counterexample was found)")
