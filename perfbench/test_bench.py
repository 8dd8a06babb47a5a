"""Tests of the benchmark's own helpers.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""
import itertools
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- percentile

def test_percentile_reports_value_and_counts():
    p = harness.percentile(range(1, 101), 99.0)
    assert p.value == pytest.approx(99.01)
    assert (p.n, p.beyond) == (100, 1)
    assert not p.resolved


def test_percentile_resolved_needs_ten_beyond():
    p = harness.percentile(range(1000), 99.0)
    assert p.n == 1000 and p.beyond == 10 and p.resolved
    short = harness.percentile(range(900), 99.0)
    assert short.beyond == 9 and not short.resolved


def test_percentile_matches_median_and_rejects_empty():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert harness.percentile([7.0], 99.0).value == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50.0)


# ----------------------------------------------------------------- self time

def _span(name, start, end, parent=None):
    return harness.Span(name, start, end, parent, "workload")


def test_self_time_subtracts_direct_children_only():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 4.0, 0),
             _span("c", 2.0, 3.0, 1),
             _span("d", 5.0, 6.0, 0)]
    assert harness.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 5.0, 0), _span("c", 3.0, 7.0, 0)]
    assert harness.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_parents_and_errors_only_while_recording():
    tracer = harness.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap("m.inner", inner)
    outer_t = tracer.wrap("m.outer", lambda x: inner_t(x) + 1)
    assert outer_t(1) == 2 and tracer.spans == []
    with tracer.recording("probe"):
        outer_t(1)
        with pytest.raises(ValueError):
            outer_t(-1)
    names = [(s.name, s.parent, s.error, s.run_id) for s in tracer.spans]
    assert names == [("m.outer", None, False, "probe"), ("m.inner", 0, False, "probe"),
                     ("m.outer", None, True, "probe"), ("m.inner", 2, True, "probe")]
    assert tracer.run_id == "workload" and not tracer.active


def test_patched_replaces_every_import_site_and_restores():
    def target():
        return "ok"

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    pkg.target = sub.target = target
    sub.REGISTRY = {1: target}
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    tracer = harness.Tracer()
    try:
        with harness.patched(tracer, "fakepkg", {"sub.target": (target, None)}):
            with tracer.recording("workload"):
                pkg.target(), sub.target(), sub.REGISTRY[1]()
            assert len(tracer.spans) == 3
        assert pkg.target is target and sub.target is target and sub.REGISTRY[1] is target
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


# ------------------------------------------------------------------ failures

class _FakeWorkload:
    """Operation i raises when i % 3 == 1 and fails its check when i % 3 == 2."""

    name = "fake"

    def __init__(self):
        self.count = 0

    def next_input(self):
        self.count += 1
        return self.count - 1

    def op(self, i):
        if i % 3 == 1:
            raise RuntimeError("boom")
        return i

    def check(self, i, result):
        return ["wrong"] if i % 3 == 2 else []


def test_run_window_counts_exceptions_and_failed_checks():
    tally = harness.Tally()
    latencies = run.run_window(_FakeWorkload(), 0.05, tally)
    assert tally.attempted == len(latencies) >= 3
    assert tally.failed == sum(1 for i in range(len(latencies)) if i % 3)
    assert tally.failed_frac == pytest.approx(tally.failed / tally.attempted)
    assert tally.reasons[0] == "fake #2: RuntimeError: boom"
    assert tally.reasons[1] == "fake #3: wrong"
    assert len(tally.reasons) <= tally.keep


def test_tally_without_operations():
    tally = harness.Tally()
    assert tally.failed_frac == 0.0
    assert tally.record("x", []) and not tally.record("y", ["bad"])
    assert (tally.attempted, tally.failed) == (2, 1)


# ----------------------------------------------------------------- workloads

def test_same_seed_gives_identical_design_points():
    first = list(itertools.islice(workloads.design_points(7), 500))
    again = list(itertools.islice(workloads.design_points(7), 500))
    other = list(itertools.islice(workloads.design_points(8), 500))
    assert first == again
    assert first != other


def test_design_points_stay_in_their_ranges():
    for p in itertools.islice(workloads.design_points(3), 2000):
        assert 0.5 <= p.b_field <= 3.0
        assert 0.0 < p.beta < 1.0
        assert 100 <= p.n_crystal <= 10_000
        assert 1e4 <= p.q_factor <= 1e7
        assert p.omega_r > 0.0 and math.isfinite(p.omega_r)


def test_crystal_strata_partition_the_pool():
    refs = workloads.load_refs()["crystal"]
    strata = workloads.crystal_strata(refs)
    assert len(strata) == len(workloads.CRYSTAL_VISIT)
    assert sorted(s for stratum in strata for s in stratum) == list(
        range(workloads.CRYSTAL_POOL))
    costs = [[refs[str(s)]["iterations"] for s in stratum] for stratum in strata]
    assert all(max(a) <= min(b) for a, b in zip(costs, costs[1:]))


def test_csv_digest_reads_numpy_reprs_and_catches_a_changed_value(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nnp.float64(1.5),\n2.0,3.0\n")
    ref = workloads.csv_digest(str(path))
    assert ref["columns"][0]["sum"] == 3.5 and ref["columns"][1]["empty"] == 1
    assert workloads.compare_csv("t", workloads.csv_digest(str(path)), ref, 1e-6) == []
    path.write_text("a,b\n1.5,\n2.0,3.1\n")
    assert workloads.compare_csv("t", workloads.csv_digest(str(path)), ref, 1e-6)
