"""psi_element over whole harmonic bases: user copies, cold records, and
warm records with and without their stored series, and the text of the
stored series.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_psi.py [--repeats 5]

For each (j, k, universe) of the bases benchmark workload
(`benchmarks/inputs.py`), one pass calls psi_element(j, h) on every
element h of the degree-k full basis.  The user column runs the pass on
equal polynomials that no basis built, so every call checks and splits
its input; cold gives every element a fresh record first, as a one-shot
command-line call finds it, so every call checks its element, grows its
ladder and stores its series; warm repeats the pass on those records
with their stored series dropped, so every call builds its series from
the rungs and stores it; series repeats it again, so every call returns
its stored series; ladder looks up no stored series and stores none, so
every call builds its series from the rungs, the warm route before the
series were stored.  The print column renders every stored series in
text with the printer itself (`expr._render_terms`), as a first render
does; text renders them with `render_poly_text` after one untimed
render, so every call reads the text the series keeps.  The host's
speed drifts over minutes, so the columns are interleaved: each round
runs one pass of each, in that order, and each column is the best of
--repeats rounds.  The last column is the entries the basis's records
count towards harmonics.MAX_LADDER_ENTRIES after a warm pass: ladder
rungs above h plus stored series terms.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import inputs  # noqa: E402
from supertransform import expr, harmonics  # noqa: E402
from supertransform.hermite import psi_element  # noqa: E402
from supertransform.scalars import TEXT_NOTATION  # noqa: E402
from supertransform.superalg import (SuperPolynomial,  # noqa: E402
                                     VariableUniverse)

COLUMNS = ("user", "cold", "warm", "series", "ladder", "print", "text")


def one_pass(j, elements):
    start = time.perf_counter()
    for h in elements:
        psi_element(j, h)
    return time.perf_counter() - start


def drop_series(basis):
    """Drop the stored series of the basis's records, taken off the
    count; their checks and ladders stay."""
    with harmonics._RECORDS.lock:
        for h in basis:
            record = harmonics._record(h)
            harmonics._RECORDS.series_terms -= record.entries()[1]
            record.series = {}


def render_pass(render, series):
    start = time.perf_counter()
    for f in series:
        render(f)
    return time.perf_counter() - start


def ladder_pass(j, basis):
    """A pass that finds no stored series and stores none."""
    record = harmonics._ElementRecord
    stored, store = record.stored, record.store
    record.stored = lambda self, key: None
    record.store = lambda self, key, f: f
    try:
        return one_pass(j, basis)
    finally:
        record.stored, record.store = stored, store


def one_round(j, basis, users):
    """One pass of each column, in COLUMNS order."""
    user = one_pass(j, users)
    harmonics._recorded(basis)
    cold = one_pass(j, basis)
    drop_series(basis)
    warm = one_pass(j, basis)
    entries = sum(sum(harmonics._record(h).entries()) for h in basis)
    series = one_pass(j, basis)
    ladder = ladder_pass(j, basis)
    stored = [psi_element(j, h) for h in basis]
    printed = render_pass(lambda f: expr._render_terms(f, TEXT_NOTATION),
                          stored)
    render_pass(expr.render_poly_text, stored)
    text = render_pass(expr.render_poly_text, stored)
    return (user, cold, warm, series, ladder, printed, text), entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| universe | j | k | dim | " + " | ".join(COLUMNS)
          + " | entries |")
    print("| --- " * (len(COLUMNS) + 5) + "|")
    for m, n in inputs.BASES_UNIVERSES:
        u = VariableUniverse.standard(m, n)
        for j, k in inputs.HERMITE_PAIRS:
            basis = harmonics.harmonic_basis(k, "full", u)
            users = [SuperPolynomial(u, dict(h.terms)) for h in basis]
            best = [float("inf")] * len(COLUMNS)
            for _ in range(args.repeats):
                times, entries = one_round(j, basis, users)
                best = list(map(min, best, times))
            cells = " | ".join(f"{1000 * t:.3f} ms" for t in best)
            print(f"| ({m},{n}) | {j} | {k} | {basis.dimension} | "
                  f"{cells} | {entries} |")


if __name__ == "__main__":
    main()
