#!/usr/bin/env python3
"""The full pipeline on the bundled cubic census: table, fits, filters, ranking.

Run from the repository root:  python3 demos/03_conjecture_pipeline.py
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sharpbounds import (
    EngineConfig,
    build_table,
    fit_records,
    read_graph6_file,
    run_pipeline,
)

corpus = read_graph6_file(ROOT / "data" / "cubic_connected_4_10.g6")
print(f"corpus: every connected cubic graph on 4..10 vertices "
      f"({len(corpus)} graphs)")

table = build_table(corpus)
print(f"feature table: {len(table.numeric)} numeric columns, "
      f"{len(table.boolean)} Boolean columns")

print()
print("== target: independence number, upper bounds ==")
config = EngineConfig(targets=("independence_number",), directions=("upper",),
                      filters=("generality",), top_k=6)
for rank, c in enumerate(run_pipeline(table, config), 1):
    print(f"{rank}. (touch {c.touch_number}/{c.support_size}) {c.statement}")
print("the classic regular-graph bound α(G) ≤ μ(G) shows up on its own")

print()
print("== target: zero forcing number, upper bounds (census minus K4) ==")
no_k4 = [g for g in corpus if g.order > 4]
table2 = build_table(no_k4)
config2 = EngineConfig(targets=("zero_forcing_number",), directions=("upper",),
                       filters=("generality",), top_k=6)
for rank, c in enumerate(run_pipeline(table2, config2), 1):
    print(f"{rank}. (touch {c.touch_number}/{c.support_size}) {c.statement}")
print("the top line, Z(G) ≤ α(G) + 1, is a famous open question for "
      "subcubic graphs")

print()
print("== how much the filters trim ==")
# every fit of the sweep: no filter
raw = fit_records(table2, replace(config2, filters=()))
filtered = run_pipeline(table2, config2)
print(f"raw fits with a touch: {len(raw)}, one per distinct hypothesis "
      f"support, each stated under its smallest hypothesis")
print(f"after the generality filter and top-k: {len(filtered)}")
