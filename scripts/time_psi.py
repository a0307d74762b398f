"""psi_element over whole harmonic bases: user copies, a cold and a warm
series store, and the printer against the text a stored series keeps.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_psi.py [--repeats 5]

For each (j, k, universe) of the bases benchmark workload
(`benchmarks/inputs.py`), one pass calls psi_element(j, h) on every
element h of the degree-k full basis.  The user column runs the pass on
equal polynomials that no basis built, so every call checks and splits
its input and builds its series; cold empties the series store first, as
a one-shot command-line call finds it, so every call builds its series
from the element, unchecked, and stores it; warm repeats the pass, so
every call returns its stored series.  The print column renders every
stored series in text with the printer itself (`expr._render_terms`), as
a first render does; text renders them with `render_poly_text` after one
untimed render, so every call reads the text the series keeps.  The
host's speed drifts over minutes, so the columns are interleaved: each
round runs one pass of each, in that order, and each column is the best
of --repeats rounds.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import inputs  # noqa: E402
from supertransform import expr, harmonics, hermite  # noqa: E402
from supertransform.hermite import psi_element  # noqa: E402
from supertransform.scalars import TEXT_NOTATION  # noqa: E402
from supertransform.superalg import (SuperPolynomial,  # noqa: E402
                                     VariableUniverse)

COLUMNS = ("user", "cold", "warm", "print", "text")


def one_pass(j, elements):
    start = time.perf_counter()
    for h in elements:
        psi_element(j, h)
    return time.perf_counter() - start


def render_pass(render, series):
    start = time.perf_counter()
    for f in series:
        render(f)
    return time.perf_counter() - start


def one_round(j, basis, users):
    """One pass of each column, in COLUMNS order."""
    user = one_pass(j, users)
    hermite._SERIES.clear()
    cold = one_pass(j, basis)
    warm = one_pass(j, basis)
    stored = [psi_element(j, h) for h in basis]
    printed = render_pass(lambda f: expr._render_terms(f, TEXT_NOTATION),
                          stored)
    render_pass(expr.render_poly_text, stored)
    text = render_pass(expr.render_poly_text, stored)
    return user, cold, warm, printed, text


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| universe | j | k | dim | " + " | ".join(COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 4) + "|")
    for m, n in inputs.BASES_UNIVERSES:
        u = VariableUniverse.standard(m, n)
        for j, k in inputs.HERMITE_PAIRS:
            basis = harmonics.harmonic_basis(k, "full", u)
            users = [SuperPolynomial(u, dict(h.terms)) for h in basis]
            best = [float("inf")] * len(COLUMNS)
            for _ in range(args.repeats):
                best = list(map(min, best, one_round(j, basis, users)))
            cells = " | ".join(f"{1000 * t:.3f} ms" for t in best)
            print(f"| ({m},{n}) | {j} | {k} | {basis.dimension} | "
                  f"{cells} |")


if __name__ == "__main__":
    main()
