"""Parse, compute and render times of the benchmark's exact transforms,
per operation kind (fourier, radon, parseval).

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_transforms.py [--seed 1] [--seconds 15] [--repeats 7]

The inputs are the `exact_transforms` operations that `benchmarks/run.py
--seed S --seconds T` draws (`benchmarks/inputs.py`), with the radon
eigenbasis inputs rendered to text as `benchmarks/ops.py` renders them,
outside any timing.  Each pass times, over every input of a kind, the
parse of its texts, the library call on the parsed input and the render
of its result as the command line prints it; every column is the best
of --repeats passes, in ms.  A pass that raises anywhere is an error:
the script checks no results, so compare trees by the digest it prints
(sha256 over every rendered result, refusals included).
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import inputs, ops  # noqa: E402
from supertransform import expr  # noqa: E402
from supertransform.fourier import parseval_check, super_fourier  # noqa: E402
from supertransform.radon import radon  # noqa: E402

KINDS = ("fourier", "radon", "parseval")


def parse(op):
    u = ops.universe(op)
    if op["op"] == "parseval":
        return [expr.parse(text, u) for text in op["text"]]
    return expr.parse(op["text"], u)


def compute(op, parsed):
    kind = op["op"]
    if kind == "fourier":
        return super_fourier(parsed, "+" if op["sign"] > 0 else "-")
    if kind == "radon":
        return radon(parsed)
    return parseval_check(*parsed, "full")


def one_pass(batch):
    """(parse, compute, render) seconds over the batch, and its texts."""
    times, texts = [0.0, 0.0, 0.0], []
    clock = time.perf_counter
    for op in batch:
        t0 = clock()
        parsed = parse(op)
        t1 = clock()
        try:
            result = compute(op, parsed)
        except ops.DOMAIN_ERRORS as exc:
            result = f"refused: {exc}"
        t2 = clock()
        text = result if isinstance(result, str) else ops.render(result)
        t3 = clock()
        times[0] += t1 - t0
        times[1] += t2 - t1
        times[2] += t3 - t2
        texts.append(text)
    return times, texts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    rounds = inputs.rounds_for("exact_transforms", args.seconds)
    batches = {kind: [] for kind in KINDS}
    for op in inputs.generate("exact_transforms", args.seed, rounds):
        batches[op["op"]].append(ops.prepare(op))
    digest = hashlib.sha256()
    print(f"seed {args.seed}, {rounds} rounds, best of {args.repeats}")
    print("| kind | inputs | parse ms | compute ms | render ms |")
    print("| --- | --- | --- | --- | --- |")
    for kind in KINDS:
        best = None
        for _ in range(args.repeats):
            times, texts = one_pass(batches[kind])
            best = times if best is None else list(map(min, best, times))
        for text in texts:
            digest.update(text.encode() + b"\n")
        print(f"| {kind} | {len(batches[kind])} | "
              + " | ".join(f"{1000 * t:.1f}" for t in best) + " |")
    print(f"sha256 of the rendered results: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
