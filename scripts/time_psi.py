"""psi_element over whole harmonic bases: user copies, cold records and
warm records.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_psi.py [--repeats 5]

For each (j, k, universe) of the bases benchmark workload
(`benchmarks/inputs.py`), one pass calls psi_element(j, h) on every
element h of the degree-k full basis.  The user column runs the pass on
equal polynomials that no basis built, so every call checks and splits
its input; cold gives every element a fresh record first, as a one-shot
command-line call finds it; warm repeats the pass with the records and
ladders the cold pass left.  Each is the best of --repeats passes.  The
last column is the int entries of the basis's ladder rungs above h after
the passes.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import inputs  # noqa: E402
from supertransform import harmonics  # noqa: E402
from supertransform.hermite import psi_element  # noqa: E402
from supertransform.superalg import (SuperPolynomial,  # noqa: E402
                                     VariableUniverse)


def one_pass(j, elements, cold=None):
    if cold is not None:
        harmonics._recorded(cold)
    start = time.perf_counter()
    for h in elements:
        psi_element(j, h)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| universe | j | k | dim | user | cold | warm | ladder |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for m, n in inputs.BASES_UNIVERSES:
        u = VariableUniverse.standard(m, n)
        for j, k in inputs.HERMITE_PAIRS:
            basis = harmonics.harmonic_basis(k, "full", u)
            users = [SuperPolynomial(u, dict(h.terms)) for h in basis]
            user, cold, warm = (
                min(one_pass(j, elements, fresh)
                    for _ in range(args.repeats))
                for elements, fresh in [(users, None), (basis, basis),
                                        (basis, None)])
            ladder = sum(len(rung.terms) for h in basis
                         for rung in harmonics._record(h).ladder[1:])
            print(f"| ({m},{n}) | {j} | {k} | {basis.dimension} | "
                  f"{1000 * user:.2f} ms | {1000 * cold:.2f} ms | "
                  f"{1000 * warm:.2f} ms | {ladder} |")


if __name__ == "__main__":
    main()
