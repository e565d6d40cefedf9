"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction

from sharpbounds import (
    Conjecture,
    EngineConfig,
    Hypothesis,
    SharpBoundingFunction,
    UndefinedInvariantError,
    build_table,
    check_conjecture,
    dalmatian_filter,
    fit_linear_bound,
    fit_records,
    generality_filter,
    mask_rows,
    read_graph6_file,
    run_pipeline,
    sort_conjectures,
    standard_invariants,
    standard_predicates,
    total_domination_number,
    write_export,
)
from sharpbounds.cli import main

import oracles
from oracles import generate


def _claim(target, other, slope, intercept, hypothesis, direction="upper"):
    """A hand-stated conjecture for verification runs."""
    return Conjecture(
        target=target, other=other,
        hypothesis=Hypothesis(hypothesis),
        bound=SharpBoundingFunction(Fraction(slope).as_integer_ratio(),
                                    Fraction(intercept).as_integer_ratio(),
                                    direction),
        touch_set=frozenset({"claimed"}), touch_number=1, support_size=1)


def _no_nested_same_bound_pairs(conjectures, table):
    seen = {}
    for c in conjectures:
        sup = frozenset(table.labels[i]
                        for i in mask_rows(table.support(c.hypothesis)))
        key = (c.target, c.other, c.bound)
        for other in seen.get(key, []):
            if sup < other or other < sup or sup == other:
                return False
        seen.setdefault(key, []).append(sup)
    return True


# ---------------------------------------------------------------------------
# 1. Rediscovery of the regular-graph independence/matching bound
# ---------------------------------------------------------------------------

def test_criterion_1_alpha_mu_rediscovery(cubic_corpus_path):
    started = time.monotonic()
    corpus = read_graph6_file(cubic_corpus_path)
    assert len(corpus) == 27  # every connected cubic graph on 4..10 vertices
    table = build_table(corpus)
    config = EngineConfig(targets=("independence_number",),
                          directions=("upper",), filters=("generality",))
    result = run_pipeline(table, config)

    wanted = [c for c in result
              if c.other == "matching_number"
              and c.bound.slope == (1, 1) and c.bound.intercept == (0, 1)]
    assert wanted, [c.statement for c in result]
    (conj,) = wanted
    assert conj.touch_number >= 1

    # the surviving hypothesis is at least as general as {connected, cubic}
    cubic_support = table.support(Hypothesis({"connected", "cubic"}))
    assert cubic_support & table.support(conj.hypothesis) == cubic_support

    assert check_conjecture(conj, corpus, standard_invariants(),
                            build_table(corpus, {}, standard_predicates())
                            )[0] is None
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"criterion 1: PASS  {conj.statement!r} touch={conj.touch_number} "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Rediscovery of the cubic zero-forcing bounds
# ---------------------------------------------------------------------------

def test_criterion_2_zero_forcing_rediscovery(cubic_corpus_path):
    started = time.monotonic()
    corpus = [g for g in read_graph6_file(cubic_corpus_path) if g.order > 4]
    assert len(corpus) == 26  # the census minus K4
    table = build_table(corpus)
    config = EngineConfig(targets=("zero_forcing_number",),
                          directions=("upper",), filters=("generality",),
                          top_k=10**6)
    unfiltered = generate(table, config)
    invariants = standard_invariants()
    predicate_table = build_table(corpus, {}, standard_predicates())

    failures = []

    def check_bound(other, slope, label):
        fits = sorted({(Fraction(*c.bound.slope), Fraction(*c.bound.intercept),
                        c.touch_number)
                       for c in unfiltered if c.other == other})
        if not any(s == slope and b == 0 for s, b, _ in fits):
            failures.append(
                f"{label} not generated; fitted bounds for {other}: {fits}")
        claim = _claim("zero_forcing_number", other, slope, 0,
                       ("connected", "cubic"))
        witness = check_conjecture(claim, corpus, invariants,
                                   predicate_table)[0]
        if witness is not None:
            failures.append(f"{label} fails corpus-wide: counterexample "
                            f"{witness[0]} with Z={witness[1]} > {witness[2]}")

    check_bound("total_domination_number", Fraction(3, 2),
                "Z <= (3/2)*gamma_t")
    check_bound("domination_number", Fraction(2), "Z <= 2*gamma")

    # the sharper (more general) of each comparable pair survives filtering
    filtered = run_pipeline(table, config)
    if not _no_nested_same_bound_pairs(filtered, table):
        failures.append("filtered output retains a dominated duplicate")

    elapsed = time.monotonic() - started
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 300s")

    if failures:
        print(f"criterion 2: FAIL  ({elapsed:.1f}s)")
    else:
        print(f"criterion 2: PASS  ({elapsed:.1f}s)")
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 3. Verifying the claw-free zero-forcing/vertex-cover bound
# ---------------------------------------------------------------------------

def test_criterion_3_claw_free_verify(mixed_corpus_path, tmp_path, capsys):
    export = tmp_path / "claw_free_bound.jsonl"
    write_export([_claim("zero_forcing_number", "vertex_cover_number",
                         1, 0, ("claw-free",))], export)
    code = main(["verify", str(export), str(mixed_corpus_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 1 and out[0].startswith("HOLDS")
    with capsys.disabled():
        print(f"criterion 3: PASS  {out[0]}")


# ---------------------------------------------------------------------------
# 4. Solver equals exhaustive oracle, exactly
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence(random_suite, named_suite):
    started = time.monotonic()
    suite = list(random_suite) + list(named_suite)
    assert len(random_suite) >= 200
    assert all(g.order <= 8 for g in random_suite)
    pairs = [
        ("independence_number", oracles.oracle_independence),
        ("matching_number", oracles.oracle_matching),
        ("domination_number", oracles.oracle_domination),
        ("independent_domination_number",
         oracles.oracle_independent_domination),
        ("min_maximal_matching", oracles.oracle_min_maximal_matching),
        ("zero_forcing_number", oracles.oracle_zero_forcing),
        ("vertex_cover_number", oracles.oracle_vertex_cover),
    ]
    invariants = standard_invariants()
    checked = 0
    for g in suite:
        for name, oracle in pairs:
            assert invariants[name](g) == oracle(g), (g.label, name)
            checked += 1
        expected = oracles.oracle_total_domination(g)
        try:
            got = total_domination_number(g)
        except UndefinedInvariantError:
            got = None
        assert got == expected, (g.label, "total_domination_number")
        checked += 1
    print(f"criterion 4: PASS  {checked} solver/oracle comparisons over "
          f"{len(suite)} graphs ({time.monotonic() - started:.1f}s)")


# ---------------------------------------------------------------------------
# 5. Classical identities on every corpus graph
# ---------------------------------------------------------------------------

def test_criterion_5_classical_identities(cubic_corpus_path, mixed_corpus_path,
                                          random_suite, named_suite):
    graphs = (read_graph6_file(cubic_corpus_path)
              + read_graph6_file(mixed_corpus_path)
              + list(random_suite) + list(named_suite))
    inv = standard_invariants()
    for g in graphs:
        n = g.order
        alpha = inv["independence_number"](g)
        beta = inv["vertex_cover_number"](g)
        mu = inv["matching_number"](g)
        mu_star = inv["min_maximal_matching"](g)
        gamma = inv["domination_number"](g)
        idom = inv["independent_domination_number"](g)
        assert alpha + beta == n, g.label
        assert gamma <= idom <= alpha, g.label
        assert mu_star <= mu <= 2 * mu_star, g.label
        assert mu <= beta <= 2 * mu, g.label
        assert inv["zero_forcing_number"](g) >= inv["min_degree"](g), g.label
        if all(g.degree(v) > 0 for v in range(n)):
            gamma_t = inv["total_domination_number"](g)
            assert gamma <= gamma_t <= 2 * gamma, g.label
    print(f"criterion 5: PASS  identities hold on {len(graphs)} graphs")


# ---------------------------------------------------------------------------
# 6. Fitter optimality against brute force
# ---------------------------------------------------------------------------

def test_criterion_6_fitter_optimality():
    started = time.monotonic()
    rng = random.Random(60317)
    for trial in range(1000):
        count = rng.randint(1, 12)
        points = [(rng.randint(0, 10), rng.randint(0, 10), 1 << i)
                  for i in range(count)]
        direction = rng.choice(["upper", "lower"])
        result = fit_linear_bound(points, direction)
        assert result.touch_number >= 1
        # no point violates the bound, and the touched rows are on it
        assert result.bound.compare(points) == (0, result.touched), \
            (trial, points, direction)
        assert result.touch_number == oracles.oracle_best_touch(points,
                                                                direction), \
            (trial, points, direction)
    print(f"criterion 6: PASS  1000 random fits match brute force "
          f"({time.monotonic() - started:.1f}s)")


# ---------------------------------------------------------------------------
# 7. Filter semantics
# ---------------------------------------------------------------------------

def test_criterion_7_filter_semantics(mixed_corpus_path):
    corpus = read_graph6_file(mixed_corpus_path)
    table = build_table(corpus)
    config = EngineConfig(
        targets=("independence_number", "zero_forcing_number"),
        min_support=4)
    raw = fit_records(table, config)
    assert raw

    general = [raw[i] for i in generality_filter(
        [((r.target, r.other, r.bound), r.support) for r in raw])]
    assert _no_nested_same_bound_pairs(general, table)

    ranked = sort_conjectures(general)
    touches = [r.touch_number for r in ranked]
    assert touches == sorted(touches, reverse=True)

    unions = {}
    accepted = dalmatian_filter(ranked)
    assert accepted
    for r in accepted:
        pool = unions.get((r.target, r.direction), 0)
        assert r.fit.touched & ~pool, r.statement
        unions[r.target, r.direction] = pool | r.fit.touched
    print(f"criterion 7: PASS  {len(raw)} raw, {len(general)} general, "
          f"{len(accepted)} after dalmatian")


# ---------------------------------------------------------------------------
# 8. Byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_8_reproducibility(cubic_corpus_path, tmp_path, capsys):
    export = tmp_path / "run.jsonl"
    cache = tmp_path / "cache"
    args = ["conjecture", "--corpus", str(cubic_corpus_path),
            "--targets", "alpha,Z", "--directions", "upper",
            "--filters", "both", "--cache", str(cache),
            "--export", str(export)]

    assert main(args) == 0
    stdout_first = capsys.readouterr().out
    export_first = export.read_bytes()

    assert main(args) == 0  # second run reads the cached table
    stdout_second = capsys.readouterr().out
    export_second = export.read_bytes()

    assert stdout_first == stdout_second
    assert export_first == export_second
    with capsys.disabled():
        print("criterion 8: PASS  listings and exports byte-identical")
