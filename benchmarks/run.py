"""Benchmark of the command-line pipeline: parse -> transform -> render.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py

Run from the root of a source checkout.  One caller drives one process
in a closed loop, sequentially, with no threads; every worker is a fresh
interpreter with ``src`` on its path, so nothing needs installing.  Each
operation parses its expression text, runs the library call and renders
the result, as the command line does.  Without ``--workload`` it runs
every workload as ``--trace 0`` does, with seed 1 and the run length of
BENCHMARK.json, and prints the end-to-end metrics as one table.

``--trace 0`` draws as many rounds of inputs as take ``--seconds`` on
the nominal host (``inputs.rounds_for``), so a seed always gives the
same work, and starts TIMED_WORKERS fresh interpreters in turn.  Each
one times its set-up (import and one warm-up operation per universe),
then attempts its share of the inputs, each once, in a closed loop, and
afterwards checks its results exactly; identical inputs are checked
once, and every copy must give the same text.

The host's speed drifts by half or more for seconds to minutes at a
time.  Every time is therefore also scaled to a nominal host, by a fixed
reference computation timed next to it (``worker.HostSpeed`` and
``worker.to_nominal``); the metrics are the scaled times, and the
measured ones are printed beside them.  Every metric is taken over all
timed attempts:

* ``ops_per_s``: successful attempts per second of the timed windows'
  operation time (the reference timings taken inside them excluded);
  a refused input costs its time and answers nothing;
* ``latency_p50_ms``: median attempt latency;
* ``latency_tail_ms``: the highest percentile of the attempt latencies
  with at least ten attempts beyond it, that is the eleventh-largest
  latency; the percentile and the attempt count are printed beside it;
* ``success_rate``: one minus the error rate, the share of attempts that
  neither raised nor returned a result failing its check;
* ``setup_s``: median set-up time of the interpreters;
* ``peak_rss_mb``: median peak resident memory of the interpreters.

``--trace 1`` runs one interpreter that sets up and makes one untraced
pass, and another that does the same with layer spans recorded; it
prints the per-layer metrics of ``layers.py`` and ``trace_overhead``, the
traced wall time over the untraced one, and writes the spans under
``.bench_out/``.  Its times are scaled to the nominal host as well.

With ``--workload``, the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402

# Fresh interpreters per timed run: each is one set-up sample and times
# its share of the window, so the attempts are spread over the whole run.
TIMED_WORKERS = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
TABLE_SEED = 1

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def run_worker(deadline, *args):
    """Run one fresh interpreter to completion; returns its JSON line."""
    # one caller and no threads: numpy's BLAS runs on one thread too;
    # with its default two, one float solve took 44 s instead of 0.26 s
    # while another process held the second core
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} exceeded the time limit") \
            from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """The highest percentile of `values` with at least TAIL_BEYOND values
    beyond it: its value and the percentile, ranks running linearly from
    0 at the smallest value to 100 at the largest."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[rank], 100.0 * rank / max(1, len(ordered) - 1)


def gather(reports, key):
    """Per input id, every value under `key` across worker reports."""
    out = {}
    for rep in reports:
        for op_id, values in rep[key].items():
            out.setdefault(int(op_id), []).extend(values)
    return out


def merge(reports, work):
    """Failure reason by input id, and whether any failure is a wrong
    answer rather than a refusal.  Identical inputs share one verdict,
    and every copy must give the same text or be refused alike."""
    content = {op["id"]: inputs.content(op) for op in work}
    refused, wrong, answers = {}, {}, {}
    for rep in reports:
        for op_id, why in rep["raised"].items():
            refused.setdefault(content[int(op_id)], why)
        for op_id, why in rep["wrong"].items():
            wrong.setdefault(content[int(op_id)], why)
        for op_id, digest in rep["digests"].items():
            answers.setdefault(content[int(op_id)], set()).add(digest)
    for key, digests in answers.items():
        if len(digests) > 1:
            wrong.setdefault(key, "result differs between copies")
        if key in refused:
            wrong.setdefault(key, "answered in one copy, refused in "
                                  f"another ({refused[key]})")
    unexpected = any(rep["unexpected"] for rep in reports)
    reasons = {**refused, **wrong}
    failed = {op_id: reasons[key] for op_id, key in content.items()
              if key in reasons}
    return failed, bool(wrong) or unexpected


def describe(failed, work):
    by_id = {op["id"]: op for op in work}
    counts = {}
    for op_id, why in failed.items():
        op = by_id[op_id]
        key = f"{op['op']} ({op['m']},{op['n']}): {why}"
        counts[key] = counts.get(key, 0) + 1
    for key, count in sorted(counts.items()):
        print(f"  failed on {count} input(s): {key}")


def end_to_end(workload, seed, seconds, deadline):
    rounds = inputs.rounds_for(workload, seconds)
    work = inputs.generate(workload, seed, rounds)
    reports = [run_worker(deadline, "timed", workload, seed, rounds, i,
                          TIMED_WORKERS)
               for i in range(TIMED_WORKERS)]
    failed, any_wrong = merge(reports, work)
    attempts = gather(reports, "latencies")
    attempted = sum(len(lat) for lat in attempts.values())
    failed_attempts = sum(len(attempts.get(i, ())) for i in failed)
    error_rate = failed_attempts / attempted

    def summarise(latencies, setups):
        every = [dt for lat in latencies.values() for dt in lat]
        slowest, p_tail = tail(every)
        return {
            "ops_per_s": (attempted - failed_attempts) / sum(every),
            "latency_p50_ms": 1000 * statistics.median(every),
            "latency_tail_ms": 1000 * slowest,
            "success_rate": 1.0 - error_rate,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                             for rep in reports),
        }, p_tail

    values, p_tail = summarise(attempts,
                               [rep["setup_s"] for rep in reports])
    measured, _ = summarise(gather(reports, "measured_latencies"),
                            [rep["measured_setup_s"] for rep in reports])
    reference = statistics.median(rep["reference_s"] for rep in reports)
    window = sum(rep["window_s"] for rep in reports)
    print(f"{workload} seed {seed}: {attempted} attempts at {len(work)} "
          f"inputs in {len(reports)} interpreters, {window:.2f} s timed; "
          f"reference {1000 * reference:.3f} ms against "
          f"{1000 * worker.REFERENCE_NOMINAL_S:g} ms nominal")
    notes = {
        "latency_tail_ms": f"p{p_tail:.2f} of {attempted} attempts, "
                           f"{TAIL_BEYOND} beyond it",
        "success_rate": f"error_rate {error_rate:.4f}: {failed_attempts} of "
                        f"{attempted} attempts failed",
        "setup_s": f"median of {len(reports)} interpreters",
    }
    print(f"  {'metric':<16} {'nominal':>12} {'measured':>12}")
    for name, value in values.items():
        print(f"  {name:<16} {value:12.4f} {measured[name]:12.4f} "
              f"{END_TO_END_UNITS[name]:<6} {notes.get(name, '')}")
    describe(failed, work)
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return not any_wrong, attempted, failed_attempts, metrics


def per_layer(workload, seed, seconds, deadline):
    work = inputs.generate(workload, seed)
    plain = run_worker(deadline, "pass", workload, seed)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
    traced = run_worker(deadline, "traced", workload, seed, trace_file)
    failed, any_wrong = merge([plain, traced], work)
    attempts = gather([traced], "latencies")
    units = {m.name: m.unit for m in layers.PER_LAYER}
    units["trace_overhead"] = layers.TRACE_OVERHEAD.unit
    # times scaled to the nominal host, as the end-to-end ones are
    values = {name: worker.to_nominal(value, traced["reference_s"], workload)
              if units[name] == "s" else value
              for name, value in traced["per_layer"].items()}
    values["trace_overhead"] = \
        worker.to_nominal(traced["wall_s"], traced["reference_s"], workload) \
        / worker.to_nominal(plain["wall_s"], plain["reference_s"], workload)
    print(f"{workload} seed {seed}: traced set-up and pass "
          f"{traced['wall_s']:.2f} s, untraced {plain['wall_s']:.2f} s, "
          f"{traced['spans']} spans written to "
          f"{os.path.relpath(trace_file, ROOT)}")
    for name, value in values.items():
        print(f"  {name:<34} {value:16.6g} {units[name]}")
    describe(failed, work)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    attempted = sum(len(lat) for lat in attempts.values())
    failed_attempts = sum(len(attempts.get(i, ())) for i in failed)
    return not any_wrong, attempted, failed_attempts, metrics


def table():
    """Every workload's end-to-end metrics, measured as the benchmark
    measures them, in one table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    rows = []
    for workload in inputs.WORKLOADS:
        deadline = time.monotonic() + TIME_LIMIT_S
        correct, attempted, failed, metrics = end_to_end(
            workload, TABLE_SEED, seconds, deadline)
        rows.append((workload, correct, failed / attempted, metrics))
    names = list(END_TO_END_UNITS)
    print(f"\nseed {TABLE_SEED}, {seconds} s per workload")
    print(f"{'workload':<18}" + "".join(f"{n:>17}" for n in names)
          + f"{'error_rate':>12}{'correct':>9}")
    print(" " * 18 + "".join(f"{END_TO_END_UNITS[n]:>17}" for n in names)
          + f"{'ratio':>12}")
    for workload, correct, error_rate, metrics in rows:
        print(f"{workload:<18}"
              + "".join(f"{metrics[n]['value']:17.4f}" for n in names)
              + f"{error_rate:12.4f}{str(correct):>9}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS,
                   help="run one workload; without it, print the table")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is not None and (args.seed is None
                                      or args.seconds is None):
        p.error("--workload needs --seed and --seconds")
    if not os.path.isfile(os.path.join(ROOT, "src", "supertransform",
                                       "__init__.py")):
        print(f"no supertransform sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            table()
            return 0
        deadline = time.monotonic() + TIME_LIMIT_S
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
