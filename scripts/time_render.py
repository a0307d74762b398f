"""Render times of the benchmark's results, as text and as LaTeX, and
of their stored text.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_render.py [--seeds 1] [--repeats 9]

For each workload and seed, the results are those of one round of
`benchmarks/inputs.py`, computed once and untimed (an input the program
refuses has no result and is left out).  Each is rendered as the
command line renders it: a polynomial or Gaussian function in text or
LaTeX, a list of them one per line, a Radon result by the command
line's Radon printer (text under every format).  A Parseval verdict and
a decomposition report have no coefficient to print and are left out.

A Gaussian function keeps its text once `render_poly_text` has written
it, so the text column calls the printer under it (`expr._render_terms`
in the text notation) and times the printer on every pass.  The stored
column calls `render_poly_text` after one untimed pass has filled every
text slot, so it times the stored text a repeated render reads (the
Radon printer and plain polynomials, which keep no text, still print).
Each time is the best of --repeats passes over the round.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import inputs, ops  # noqa: E402
from supertransform import cli, expr  # noqa: E402
from supertransform.radon import RadonResult  # noqa: E402
from supertransform.scalars import TEXT_NOTATION  # noqa: E402

PRINTERS = {
    "text": (lambda f: expr._render_terms(f, TEXT_NOTATION), "text"),
    "latex": (expr.render_poly_latex, "latex"),
    "stored": (expr.render_poly_text, "text"),
}


def round_results(workload, seed):
    """The printable results of one round of the workload."""
    out = []
    for op in inputs.generate(workload, seed, 1):
        ops.prepare(op)
        try:
            result = ops.run(op)
        except ops.DOMAIN_ERRORS:
            continue
        if not isinstance(result, (bool, dict)):
            out.append(result)
    return out


def render_all(results, notation):
    poly, fmt = PRINTERS[notation]
    for result in results:
        if isinstance(result, RadonResult):
            cli._render_radon(result, fmt)
        elif isinstance(result, list):
            "\n".join(poly(g) for g in result)
        else:
            poly(result)


def best_ms(results, notation, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        render_all(results, notation)
        times.append(time.perf_counter() - start)
    return 1000 * min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    print("| workload | seed | results | text ms | latex ms | stored ms |")
    print("| --- | --- | --- | --- | --- | --- |")
    for workload in inputs.WORKLOADS:
        for seed in args.seeds:
            results = round_results(workload, seed)
            text = best_ms(results, "text", args.repeats)
            latex = best_ms(results, "latex", args.repeats)
            render_all(results, "stored")   # fills every text slot
            stored = best_ms(results, "stored", args.repeats)
            print(f"| {workload} | {seed} | {len(results)} | {text:.2f} | "
                  f"{latex:.2f} | {stored:.2f} |")


if __name__ == "__main__":
    main()
