"""The package's public names: ``__all__`` lists exactly what it binds."""

import inspect

import sharpbounds


def test_all_equals_the_public_bindings():
    # every public non-module binding is listed, and every listed name is
    # bound; submodules (``engine``, ``cli``, ...) are reached by import
    bound = {name for name, value in vars(sharpbounds).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(sharpbounds.__all__) == len(set(sharpbounds.__all__))
    assert set(sharpbounds.__all__) - bound == set()
    assert bound - set(sharpbounds.__all__) == set()


def test_removed_names_stay_removed():
    # the per-hypothesis conjecture list and the second corpus walk of
    # verify are gone: fit_records and check_conjecture replace them, and a
    # fit record is listed once, under its smallest hypothesis; so are
    # the family-name lookup and the one-graph predicate dict: call the
    # builders and standard_predicates() directly. check_conjecture(...)[0]
    # is the counterexample, read_numbered_export reads an export, and a
    # bound's identity is (target, other, bound); one field check reads an
    # export record, and build_table only computes: load_table alone parses
    # the table cache. The fitter alone finds the rows a line can reach, and
    # the top-k skip test is no cover list
    removed = {sharpbounds.engine: ("generate", "touch_count_on",
                                    "find_counterexample", "read_export",
                                    "_bound_and_support", "_R", "_name_list",
                                    "_int_pair", "_int", "_per_hypothesis",
                                    "_reachable_rows"),
               sharpbounds.graphs: ("named_graph", "graph_names"),
               sharpbounds.predicates: ("evaluate_predicates",)}
    for module, names in removed.items():
        for name in names:
            assert name not in sharpbounds.__all__
            assert not hasattr(sharpbounds, name)
            assert not hasattr(module, name)
    assert not issubclass(sharpbounds.engine._TopKSkip,
                          sharpbounds.engine._CoverSkip)
    for cls in (sharpbounds.Conjecture, sharpbounds.FitRecord):
        assert not hasattr(cls, "bound_key")
    assert not hasattr(sharpbounds.FitRecord, "hypotheses")
    assert list(inspect.signature(sharpbounds.generality_filter).parameters) \
        == ["pairs"]
    assert list(inspect.signature(sharpbounds.build_table).parameters) \
        == ["corpus", "invariants", "predicates"]
    # one comparison of a bound with points replaces the per-point tests;
    # check_conjecture reads hypotheses off a predicate table
    for name in ("violations", "holds", "touches", "_excess"):
        assert not hasattr(sharpbounds.SharpBoundingFunction, name)
    assert list(inspect.signature(sharpbounds.check_conjecture).parameters) \
        == ["c", "corpus", "invariants", "table"]
