"""Warm decomposition checks: the product route kept as a test oracle
(tests/oracles.py) against the package's closed sl2 rule.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_decompose.py [--repeats 7]

For each (m, n, k) below, both routes first run once untimed, so every
basis they read is built and memoized, and their reports are checked
equal.  The host's speed drifts over minutes, so the columns are
interleaved: each round runs one call of each route, the product route
first, and each column is the best of --repeats rounds.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from supertransform.harmonics import decomposition_check  # noqa: E402
from supertransform.superalg import VariableUniverse  # noqa: E402
from tests.oracles import decomposition_check_by_products  # noqa: E402

SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)]
DEGREES = (4, 5, 6)


def timed(check, k, u):
    start = time.perf_counter()
    check(k, u)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    print("| shape | k | dim | product route ms | closed rule ms |")
    print("| --- | --- | --- | --- | --- |")
    for m, n in SHAPES:
        u = VariableUniverse.standard(m, n)
        for k in DEGREES:
            report = decomposition_check(k, u)
            assert decomposition_check_by_products(k, u) == report
            old, new = [], []
            for _ in range(args.repeats):
                old.append(timed(decomposition_check_by_products, k, u))
                new.append(timed(decomposition_check, k, u))
            print(f"| ({m},{n}) | {k} | {report['dim_nullspace']}"
                  f" | {1000 * min(old):.3f} | {1000 * min(new):.3f} |")


if __name__ == "__main__":
    main()
