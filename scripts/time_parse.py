"""Parse times of the benchmark's transform texts, with the lexeme table
cold and warm.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_parse.py [--seeds 1 2 3] [--repeats 5]

For each workload that parses (exact_transforms, fractional) and seed,
the texts are one round of `benchmarks/inputs.py`, with the radon
eigenbasis inputs rendered as `benchmarks/ops.py` renders them.  Cold
is one pass over the round with `expr.LEXEMES` cleared before it, warm
a second pass over the same round; each is the best of --repeats
passes.  The table's size after a cold pass and the misses in it
(lexemes decoded, counted in an untimed pass) are printed beside them.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import inputs, ops  # noqa: E402
from supertransform import expr  # noqa: E402
from supertransform.superalg import VariableUniverse  # noqa: E402

WORKLOADS = ("exact_transforms", "fractional")


def round_texts(workload, seed):
    """(text, universe) for every text one round of the workload parses."""
    out = []
    for op in inputs.generate(workload, seed, 1):
        ops.prepare(op)
        u = VariableUniverse.standard(op["m"], op["n"])
        texts = op["text"] if isinstance(op["text"], list) else [op["text"]]
        out.extend((text, u) for text in texts)
    return out


def one_pass(texts, cold):
    if cold:
        expr.LEXEMES.clear()
    start = time.perf_counter()
    for text, u in texts:
        expr.parse(text, u)
    return time.perf_counter() - start


def cold_misses(texts):
    """Lexemes decoded in one cold pass, and the table's size after it."""
    decode = expr._decode
    misses = [0]

    def counting(text, k):
        misses[0] += 1
        return decode(text, k)

    expr._decode = counting
    try:
        one_pass(texts, cold=True)
    finally:
        expr._decode = decode
    return misses[0], len(expr.LEXEMES)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| workload | seed | texts | lexemes | cold ms | warm ms | "
          "table size | misses |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in WORKLOADS:
        for seed in args.seeds:
            texts = round_texts(workload, seed)
            lexemes = sum(len(expr._LEXEME.findall(text)) for text, _ in texts)
            cold = min(one_pass(texts, cold=True)
                       for _ in range(args.repeats))
            one_pass(texts, cold=False)
            warm = min(one_pass(texts, cold=False)
                       for _ in range(args.repeats))
            misses, size = cold_misses(texts)
            print(f"| {workload} | {seed} | {len(texts)} | {lexemes} | "
                  f"{1000 * cold:.1f} | {1000 * warm:.1f} | {size} | "
                  f"{misses} |")


if __name__ == "__main__":
    main()
