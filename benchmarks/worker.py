"""One fresh interpreter of a benchmark run.

    python3 benchmarks/worker.py timed WORKLOAD SEED ROUNDS INDEX WORKERS
    python3 benchmarks/worker.py pass WORKLOAD SEED
    python3 benchmarks/worker.py traced WORKLOAD SEED TRACE_FILE

``src`` and ``benchmarks`` must be on PYTHONPATH.  Every mode first sets
up: it imports the package and runs one warm-up operation per universe
of the workload.

* ``timed`` then attempts share INDEX of WORKERS of the workload's
  inputs, ROUNDS rounds of them, once each in a closed loop, keeping
  every latency, and afterwards checks the results it owns;
* ``pass`` / ``traced`` make one pass over the inputs and check every
  result, with the layer spans recorded in ``traced`` mode and written
  to TRACE_FILE.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import inputs
import layers
import spans

clock = time.perf_counter

# The host's speed drifts by half or more for seconds to minutes at a
# time, and slows this fixed computation and the program's Python code
# alike.  Timed values are therefore scaled to a nominal host on which it
# takes REFERENCE_NOMINAL_S (about its fast-state time on the 2-core
# machine the benchmark was tuned on), using its time measured next to
# each value: by (nominal / measured reference) ** REFERENCE_EXPONENT.
# The fractional workload's heavy operations (its float solve) follow
# the reference only in part: on that machine, over two minutes, they
# slowed by a tenth of what the reference slowed, so there the exponent
# is 0.5, which gave the steadiest figures over five seeds (with 1 or
# 0 they spread two to six times as much).  The reference runs with the
# garbage collector off: a collection there would cost in proportion to
# the program's live heap, and a change that grows the heap would then
# be partly divided out of its own times.
REFERENCE_NOMINAL_S = 0.002
REFERENCE_EVERY_S = 0.05
REFERENCE_NEAR = 16       # timings per scale, about 0.8 s of the run
REFERENCE_EXPONENT = {"exact_transforms": 1.0, "fractional": 0.5,
                      "bases": 1.0}


def to_nominal(seconds, reference_s, workload):
    """`seconds` measured beside a reference that took `reference_s`,
    scaled to the nominal host."""
    return seconds * (REFERENCE_NOMINAL_S / reference_s) \
        ** REFERENCE_EXPONENT[workload]


def reference_work():
    """Fixed rational and dict arithmetic, the engine's kind of work."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(400):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 3 + 1)
        if x.denominator > 1 << 64:
            x = Fraction(x.numerator % 1009, x.denominator % 1013 + 1)
        key = (i % 11, i % 13)
        acc[key] = acc.get(key, 0) + i
    return x, acc


class HostSpeed:
    """Reference timings through a run, for scaling the times near them."""

    def __init__(self, workload):
        self.workload = workload
        self.at = []
        self.took = []

    def sample(self):
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            reference_work()
            t1 = clock()
        finally:
            if collecting:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def sample_if_due(self):
        if not self.at or clock() - self.at[-1] >= REFERENCE_EVERY_S:
            self.sample()

    def nominal(self, seconds, at):
        """`seconds` measured around time `at`, scaled by the median of
        the REFERENCE_NEAR reference timings nearest to it."""
        i = bisect.bisect_left(self.at, at)
        half = REFERENCE_NEAR // 2
        near = self.took[max(0, i - half):i + half]
        return to_nominal(seconds, statistics.median(near), self.workload)


def load():
    """Import the package from this checkout's ``src``; returns the ops
    module."""
    import supertransform
    import ops
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "src"))
    if not os.path.realpath(supertransform.__file__).startswith(src + os.sep):
        raise SystemExit(f"supertransform imported from "
                         f"{supertransform.__file__}, not from {src}")
    return ops


def warm_up(ops, workload, tracer=None):
    """One fixed operation per universe of the workload."""
    for m, n in inputs.universes(workload):
        if tracer is not None:
            tracer.op_id = f"setup:{m},{n}"
        ops.execute(ops.warmup_op(workload, m, n))


class Outcomes:
    """Every attempt's latency, refusals, and each input's result with a
    digest of its text."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = {}       # op id -> (start, latency) per attempt
        self.raised = {}          # op id -> reason
        self.first = {}           # op id -> (op, result)
        self.digests = {}         # op id -> digest of the result text
        self.unexpected = False

    def attempt(self, op):
        ops = self.ops
        t0 = clock()
        try:
            result, text = ops.execute(op)
        except ops.DOMAIN_ERRORS as exc:
            self.raised[op["id"]] = f"{type(exc).__name__}: {exc}"
        except Exception as exc:            # a defect, not a refusal
            self.raised[op["id"]] = f"unexpected {type(exc).__name__}: {exc}"
            self.unexpected = True
        else:
            self.first.setdefault(op["id"], (op, result))
            self.digests.setdefault(op["id"],
                                    hashlib.sha1(text.encode()).hexdigest())
        self.latencies.setdefault(op["id"], []).append((t0, clock() - t0))

    def report(self, owned=None):
        """Outcome of every attempt, and the exact check of each result,
        run here, outside any timed region.  Identical inputs are checked
        once; with `owned`, only those it accepts are checked here, the
        rest in the interpreter that owns them."""
        bad = {}
        verdicts = {}
        for op_id, (op, result) in self.first.items():
            key = inputs.content(op)
            if owned is not None and not owned(key):
                continue
            if key not in verdicts:
                verdicts[key] = self.ops.check(op, result)
            if verdicts[key] is not None:
                bad[op_id] = verdicts[key]
        return {"latencies": self.latencies, "raised": self.raised,
                "digests": self.digests, "wrong": bad,
                "unexpected": self.unexpected}


def timed(workload, seed, rounds, index, workers):
    """Set up, then attempt this interpreter's share (`index` of
    `workers`) of `rounds` rounds of inputs, each once, in a closed loop.
    An input is checked by the first interpreter whose share holds it;
    the run compares the other copies' text with that one.  Times are
    reported as measured and scaled to the nominal host."""
    speed = HostSpeed(workload)
    for _ in range(3):
        speed.sample()
    start = clock()
    ops = load()
    warm_up(ops, workload)
    setup_s = clock() - start
    for _ in range(3):
        speed.sample()
    setup_nominal_s = to_nominal(setup_s, statistics.median(speed.took),
                                 workload)
    work = inputs.generate(workload, seed, rounds)
    bounds = [i * len(work) // workers for i in range(workers + 1)]
    owner = {}
    for i in range(workers):
        for op in work[bounds[i]:bounds[i + 1]]:
            owner.setdefault(inputs.content(op), i)
    share = work[bounds[index]:bounds[index + 1]]
    out = Outcomes(ops)
    start = clock()
    for op in share:
        speed.sample_if_due()
        out.attempt(ops.prepare(op))
    window_s = clock() - start
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = out.latencies
    res = out.report(lambda key: owner[key] == index)
    res.update({
        "latencies": {op_id: [speed.nominal(dt, t0 + dt / 2)
                              for t0, dt in attempts]
                      for op_id, attempts in latencies.items()},
        "measured_latencies": {op_id: [dt for _, dt in attempts]
                               for op_id, attempts in latencies.items()},
        "setup_s": setup_nominal_s, "measured_setup_s": setup_s,
        "reference_s": statistics.median(speed.took),
        "window_s": window_s,
        "peak_rss_mb": peak_rss_mb})
    return res


def one_pass(workload, seed, trace_file=None):
    """Set up and make one pass, with the warm-ups and the pass traced
    when `trace_file` is given; every result is checked afterwards."""
    speed = HostSpeed(workload)
    start = clock()
    ops = load()
    work = [ops.prepare(op) for op in inputs.generate(workload, seed)]
    tracer = spans.Tracer(scan_modules=("ops",))
    if trace_file is not None:
        tracer.install(layers.TARGETS)
    with tracer:
        warm_up(ops, workload, tracer)
        out = Outcomes(ops)
        for op in work:
            speed.sample_if_due()
            tracer.op_id = op["id"]
            out.attempt(op)
    wall = clock() - start
    speed.sample()
    res = out.report()
    res["latencies"] = {op_id: [dt for _, dt in attempts]
                        for op_id, attempts in res["latencies"].items()}
    res["wall_s"] = wall
    res["reference_s"] = statistics.median(speed.took)
    if trace_file is not None:
        res["per_layer"] = layers.read_all(tracer)
        res["spans"] = len(tracer.spans)
        tracer.write(trace_file, workload=workload, seed=seed)
    return res


def main(argv):
    mode, workload, seed = argv[:3]
    seed = int(seed)
    if mode == "timed":
        res = timed(workload, seed, int(argv[3]), int(argv[4]),
                    int(argv[5]))
    elif mode == "pass":
        res = one_pass(workload, seed)
    elif mode == "traced":
        res = one_pass(workload, seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(res))


if __name__ == "__main__":
    main(sys.argv[1:])
