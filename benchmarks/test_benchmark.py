"""Tests of the benchmark itself: generator, checkers, tracer.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import gc
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import supertransform.fourier  # noqa: E402
from supertransform.superalg import GaussianFunction  # noqa: E402


def _first(workload, kind, seed=5, **match):
    for op in inputs.generate(workload, seed):
        if op["op"] == kind and all(op[k] == v for k, v in match.items()):
            return ops.prepare(op)
    raise LookupError(kind)


# -- generator ------------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)
    assert len(inputs.generate(workload, 7, rounds=2)) \
        == 2 * len(inputs.generate(workload, 7))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_emits_text_and_integers(workload):
    def plain(v):
        if isinstance(v, list):
            return all(plain(x) for x in v)
        return isinstance(v, (str, int))

    ops_ = inputs.generate(workload, 3)
    assert all(plain(v) for op in ops_ for v in op.values())
    assert {(op["m"], op["n"]) for op in ops_} \
        == set(inputs.universes(workload))


# -- checkers -------------------------------------------------------------

def test_fourier_check():
    op = _first("exact_transforms", "fourier", m=2, n=1)
    result, _ = ops.execute(op)
    assert ops.check(op, result) is None
    identity = ops.expr.parse(op["text"], ops.universe(op))
    assert ops.check(op, identity) is not None
    assert ops.check(op, result.scale(2)) is not None


def test_fourier_check_catches_an_involution():
    # F^- F^+ = id alone would accept a map with F^+ = F^-
    op = _first("exact_transforms", "fourier", m=1, n=1)
    f = ops.expr.parse(op["text"], ops.universe(op))
    other = "-" if op["sign"] > 0 else "+"
    wrong = supertransform.fourier.super_fourier(f, other)
    assert wrong != ops.run(op)
    assert ops.check(op, wrong) is not None


def test_parseval_check():
    op = _first("exact_transforms", "parseval", m=1, n=1)
    assert ops.check(op, ops.run(op)) is None
    assert ops.check(op, False) is not None


def _radon(eigen, m, n, seed=5):
    for op in inputs.generate("exact_transforms", seed):
        if op["op"] == "radon" and ("eigen" in op) == eigen \
                and (op["m"], op["n"]) == (m, n):
            return ops.prepare(op)
    raise LookupError("radon")


def test_radon_check():
    op = _radon(True, 2, 1)
    result = ops.run(op)
    assert ops.check(op, result) is None
    assert ops.check(op, result.scale(2)) is not None
    assert ops.check(op, result.p_derivative()) is not None


def test_radon_check_on_gaussian_inputs():
    op = _radon(False, 2, 1)
    assert op["text"] == op["expr"]
    assert ops.check(op, ops.run(op)) is None
    f = ops.expr.parse(op["text"], ops.universe(op))
    assert ops.check(op, f) is not None


def test_radon_inputs_reach_the_largest_gaussian_inputs():
    radon = [op for op in inputs.generate("exact_transforms", 4)
             if op["op"] == "radon"]
    eigen = [op for op in radon if "eigen" in op]
    assert len(eigen) * 2 == len(radon)
    most = max(op["expr"].count("G") for op in radon if "expr" in op)
    assert most == inputs.MAX_TERMS


def test_fracfourier_check():
    op = {"id": 0, "op": "fracfourier", "m": 1, "n": 1, "a_num": 1,
          "a_den": 3, "expr": "(1/2)*x1*G + q1*q2*G"}
    ops.prepare(op)
    result = ops.run(op)
    assert ops.check(op, result) is None
    assert ops.check(op, result.scale(1.001)) is not None
    f = ops.expr.parse(op["text"], ops.universe(op))
    assert ops.check(op, f) is not None
    negative = dict(op, a_num=-1, a_den=4)
    assert ops.check(negative, ops.run(negative)) is None
    assert ops.check(negative, result) is not None


def test_hermite_check():
    op = {"id": 0, "op": "hermite", "m": 2, "n": 1, "j": 1, "k": 2}
    result = ops.run(op)
    assert ops.check(op, result) is None
    scaled = [result[0].scale(Fraction(3))] + result[1:]
    assert ops.check(op, scaled) is not None
    assert ops.check(op, result[:-1]) is not None
    wrong_j = ops.run(dict(op, j=2))
    assert ops.check(op, wrong_j) is not None


def test_decompose_check():
    op = {"id": 0, "op": "decompose", "m": 2, "n": 1, "k": 3}
    report = ops.run(op)
    assert ops.check(op, report) is None
    assert ops.check(op, dict(report, dims_match=False)) is not None
    assert ops.check(op, dict(report, products_harmonic=False)) is not None
    assert ops.check(dict(op, k=4), report) is not None


def test_reflect_is_parity():
    u = ops.universe({"m": 1, "n": 1})
    f = ops.expr.parse("x1*G + 2*q1*q2*G + q1*G", u)
    want = ops.expr.parse("-x1*G + 2*q1*q2*G - q1*G", u)
    assert ops._reflect(f) == want
    assert isinstance(ops._reflect(f), GaussianFunction)


# -- tracer ---------------------------------------------------------------

def _traced(workload, count, seed=3):
    work = [ops.prepare(op) for op in inputs.generate(workload, seed)]
    work = sorted(work, key=lambda op: (op["m"] + 2 * op["n"], op["id"]))
    tracer = spans.Tracer(scan_modules=("ops",))
    with tracer.install(layers.TARGETS):
        for op in work[:count]:
            tracer.op_id = op["id"]
            try:
                ops.execute(op)
            except ops.DOMAIN_ERRORS:
                pass
    return tracer, layers.read_all(tracer)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_zero_predictions_hold(workload):
    tracer, values = _traced(workload, 8)
    assert tracer.spans and all(s[4] is not None for s in tracer.spans)
    for metric in layers.PER_LAYER:
        if workload in metric.zero_on:
            assert values[metric.name] == 0, metric.name
    assert values["superalg.sp_mul.calls"] > 0
    assert values["scalars.qqi_new.calls"] > 0


def test_named_zero_calls():
    _, exact = _traced("exact_transforms", 8)
    assert exact["hermite.psi_span.calls"] == 0
    assert exact["fourier.super_fourier.calls"] > 0
    _, bases = _traced("bases", 8)
    assert bases["fourier.super_fourier.calls"] == 0
    assert bases["harmonics.harmonic_basis.calls"] > 0


def test_tracer_restores_every_binding():
    from supertransform.scalars import ExactScalar
    original = supertransform.fourier.super_fourier
    mul = ExactScalar.__mul__
    with spans.Tracer(scan_modules=("ops",)).install(layers.TARGETS):
        assert supertransform.fourier.super_fourier is not original
        assert ops.super_fourier is not original
        assert ExactScalar.__rmul__ is not mul
    assert supertransform.fourier.super_fourier is original
    assert ops.super_fourier is original
    assert ExactScalar.__mul__ is mul and ExactScalar.__rmul__ is mul


def test_host_speed_scales_to_the_nominal_host():
    speed = worker.HostSpeed("bases")
    n = 2 * worker.REFERENCE_NEAR
    speed.at = [float(t) for t in range(n)]
    speed.took = [0.004] * (n // 2) + [0.002] * (n // 2)
    nominal = worker.REFERENCE_NOMINAL_S
    assert speed.nominal(1.0, 0.5) == 1.0 * nominal / 0.004
    assert speed.nominal(2.0, n - 1.5) == 2.0 * nominal / 0.002
    speed.sample()
    assert len(speed.took) == n + 1 and speed.took[-1] > 0
    assert worker.to_nominal(3.0, nominal / 4, "fractional") == 6.0


def test_reference_timing_runs_no_collection():
    # a collection inside the reference would cost in proportion to the
    # program's heap, and divide part of a heap change out of its times
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(worker.clock())

    speed = worker.HostSpeed("bases")
    threshold = gc.get_threshold()
    gc.set_threshold(10)
    gc.callbacks.append(record)
    try:
        speed.sample()
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    begin = speed.at[0] - speed.took[0] / 2
    end = speed.at[0] + speed.took[0] / 2
    assert not [t for t in starts if begin <= t <= end]
    assert gc.isenabled()


def test_scaling_ignores_the_programs_heap():
    # the scaled figures follow the measured ones when only the heap
    # grows: the reference takes as long beside a large live heap
    small, large = worker.HostSpeed("bases"), worker.HostSpeed("bases")
    for _ in range(5):
        worker.reference_work()           # settle the allocator first
        small.sample()
        heap = [[i] for i in range(300_000)]
        worker.reference_work()
        large.sample()
        del heap
    assert min(large.took) < 1.5 * min(small.took)


def test_span_arithmetic():
    t = spans.Tracer()
    # radon [0, 10] holds super_fourier [1, 4] holding sp_mul [2, 3],
    # and sp_mul [5, 6] directly
    t.spans = [["radon", 0.0, 10.0, -1, 1],
               ["super_fourier", 1.0, 4.0, 0, 1],
               ["sp_mul", 2.0, 3.0, 1, 1],
               ["sp_mul", 5.0, 6.0, 0, 1],
               ["psi_span", 11.0, 12.0, -1, 2],
               ["psi_span", 12.0, 15.0, -1, 3],
               ["harmonic_basis", 13.0, 14.0, 5, 3]]
    assert t.calls("sp_mul") == 2
    assert t.inclusive_s("sp_mul") == 2.0
    assert t.self_s("radon", {"super_fourier"}) == 7.0
    assert t.self_s("radon", {"super_fourier", "sp_mul"}) == 6.0
    assert t.share_without_child("psi_span", "harmonic_basis") == 0.5
    assert t.share_without_child("missing", "harmonic_basis") == 0.0


# -- merging interpreters ---------------------------------------------------

def _report(digests, raised=None, wrong=None):
    return {"latencies": {"0": [2.0], "1": [3.0], "2": [4.0], "3": [5.0]},
            "raised": raised or {}, "digests": digests,
            "wrong": wrong or {}, "unexpected": False}


# inputs 2 and 3 are identical
_WORK = [{"id": 0, "op": "a"}, {"id": 1, "op": "b"}, {"id": 2, "op": "c"},
         {"id": 3, "op": "c"}]


def test_merge_keeps_refusals_apart_from_wrong_answers():
    refused = {"1": "ValueError: degree cap exceeded"}
    same = {"0": "a", "2": "c"}
    reports = [_report(same, refused), _report({"3": "c"})]
    failed, any_wrong = run.merge(reports, _WORK)
    assert run.gather(reports, "latencies")[0] == [2.0, 2.0]
    assert failed == {1: "ValueError: degree cap exceeded"}
    assert not any_wrong
    failed, any_wrong = run.merge(
        [_report(same, refused, {"2": "radon: differs"}),
         _report({"0": "b", "3": "c"}, refused)], _WORK)
    assert failed[2] == failed[3] == "radon: differs"
    assert failed[0] == "result differs between copies"
    assert any_wrong
    failed, any_wrong = run.merge(
        [_report(same), _report({"3": "d"})], _WORK)
    assert failed[2] == failed[3] == "result differs between copies"
    assert any_wrong
    failed, any_wrong = run.merge(
        [_report(same, refused), _report(dict(same, **{"1": "x"}))], _WORK)
    assert failed[1].startswith("answered in one copy")
    assert any_wrong


# -- benchmark definition --------------------------------------------------

def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] \
        == list(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    per_layer = list(layers.PER_LAYER) + [layers.TRACE_OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in per_layer]


def test_tail_keeps_ten_attempts_beyond():
    value, p = run.tail(range(1, 101))
    assert value == 90 and sum(v > value for v in range(1, 101)) == 10
    assert p == 100.0 * 89 / 99
    assert run.tail([3, 1, 2]) == (1, 0.0)


def test_workload_needs_seed_and_seconds():
    with pytest.raises(SystemExit):
        run.main(["--workload", "bases", "--trace", "0"])
