"""The library names the benchmark harness reads still exist.

``perfbench/workloads.py`` and ``perfbench/spans.py`` look library functions
up by name and read fields of their results; a rename would otherwise only
show when the benchmark runs.  The harness files are imported, not changed.
"""

import importlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cyclozeta.dmr import grouplike_check
from cyclozeta.groups import construct_group
from cyclozeta.relations import fdtd1_identity_check
from cyclozeta.rings import RATIONAL
from cyclozeta.series import Alphabet, TruncatedSeries, series_exp
from cyclozeta.words import X0

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPAN_METRICS = ("calls", "self_s", "p50_ms")


@pytest.fixture
def harness(monkeypatch):
    pytest.importorskip("mpmath")  # perfbench/refs.py computes references with it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads
    return workloads, spans


def test_cache_stats_and_traced_checks(harness):
    workloads, spans = harness
    stats = workloads.cache_stats()
    assert set(stats) == {
        "algebra.shuffle_words_cache.size", "algebra.shuffle_words_cache.hits",
        "algebra.shuffle_words_cache.misses", "regularization.tilde_cache.size",
        "regularization.regt_cache.size"}
    group = construct_group([2])
    arg = TruncatedSeries.make(RATIONAL, Alphabet.x(group), 3,
                               {(X0,): Fraction(1), (group.element(1),): Fraction(2)})
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        # call through the modules, whose names the tracer replaced
        from cyclozeta import dmr, relations
        report = dmr.grouplike_check(series_exp(arg), "shuffle")
        cell = relations.fdtd1_identity_check(group, 2, group.identity())
        stats = tracer.end_pass(lambda t: t)
    finally:
        tracer.uninstall()
    assert report.passed and report.pairs_checked > 0
    assert cell.passed and not cell.difference.terms
    assert stats["dmr.grouplike_check.calls"] == 1
    assert stats["dmr.grouplike_check.pairs"] == report.pairs_checked
    assert stats["relations.fdtd1_identity_check.calls"] == 1
    assert stats["series.mul.calls"] > 0
    # uninstall put the originals back
    assert dmr.grouplike_check is grouplike_check
    assert relations.fdtd1_identity_check is fdtd1_identity_check


def test_traced_product_and_suite_counts(harness):
    _, spans = harness
    group = construct_group([3])
    g, h = group.element(1), group.element(2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        from cyclozeta import algebra, numeval
        result = algebra.shuffle(
            algebra.AlgebraElement.from_word(RATIONAL, "x", group, (g, X0)),
            algebra.AlgebraElement.from_word(RATIONAL, "x", group, (h, g)))
        y_result = algebra.harmonic(
            algebra.AlgebraElement.from_word(RATIONAL, "y", group, ((1, g), (2, h))),
            algebra.AlgebraElement.from_word(RATIONAL, "y", group, ((1, h),)))
        # evaluates no word
        assert numeval.numeric_relation_suite(numeval.NumericZMap(1), 1) == []
        stats = tracer.end_pass(lambda t: t)
    finally:
        tracer.uninstall()
    # the shuffle reaches the word recursion without the public quasi_shuffle,
    # and the harmonic product through it, so each product is counted once
    assert stats["algebra.shuffle.calls"] == 1
    assert stats["algebra.quasi_shuffle.calls"] == 1
    assert len(y_result.terms) == 5
    assert stats["algebra.terms_out"] == len(result.terms) + len(y_result.terms)
    assert stats["numeval.numeric_relation_suite.calls"] == 1


def test_clear_caches_empties_the_pair_table(harness):
    # every benchmark pass starts cold: the pair table shared by the duality
    # maps of one pass must not survive into the next
    workloads, _ = harness
    from cyclozeta import dmr
    group = construct_group([2])
    grouplike_check(TruncatedSeries.one(RATIONAL, Alphabet.x(group), 3), "shuffle")
    assert dmr._pair_table.cache_info().currsize == 1
    workloads.clear_caches([dmr])
    assert dmr._pair_table.cache_info().currsize == 0


def test_numeric_suites_pass(harness):
    # every suite numeric-suites runs exits 0 with only PASS rows, so a change
    # to a suite's rows shows here before the benchmark runs
    workloads, _ = harness
    from cyclozeta import cli
    for argv in workloads.SUITES:
        result = workloads._run_cli(cli, argv)
        assert workloads._check_suite(result, {}) == workloads.OK, argv


def test_exact_series_duality_ops(harness):
    # each map op compares the direct test and the grouplike check with the
    # map's construction, so a verdict that reads the pair loop wrongly fails
    workloads, _ = harness
    ops = {op.name(): op for op in workloads.exact_series(501).ops}
    for name in ("duality map 0 (constructed)", "duality map 1 (broken)"):
        op = ops[name]
        assert op.check(op.call(), {}) == workloads.OK


def test_benchmark_spans_name_public_functions():
    # the tracer labels a public function of cyclozeta.<layer> as
    # <layer>.<function>; a metric naming no such function only fails when
    # the traced benchmark reports it
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = [m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
             if m["name"].rsplit(".", 1)[-1] in SPAN_METRICS]
    assert "regularization.rho_apply" in spans and "series.mul" in spans
    for span in spans:
        if span == "series.mul":
            assert "__mul__" in vars(TruncatedSeries)
            continue
        layer, name = span.split(".")
        module = importlib.import_module(f"cyclozeta.{layer}")
        obj = getattr(module, name, None)
        assert not name.startswith("_") and callable(obj) and not isinstance(obj, type), span
        assert obj.__module__ == module.__name__, span
