"""Cold build times of harmonic bases: the row reduction kept as a test
oracle (tests/oracles.py) against the package's closed formulas.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_harmonic_bases.py

Each row is the best of 5 builds in one process, with the basis memo
cleared before every package build.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from supertransform.harmonics import harmonic_basis  # noqa: E402
from supertransform.superalg import VariableUniverse  # noqa: E402
from tests.oracles import harmonic_basis_by_nullspace  # noqa: E402

# (m, n, k, sector)
SHAPES = [(0, 6, 6, "full"), (0, 6, 5, "full"), (0, 7, 4, "full"),
          (0, 10, 3, "full"), (0, 10, 17, "full"), (1, 5, 5, "fermionic")]
REPEATS = 5


def best_ms(build):
    times = []
    for _ in range(REPEATS):
        harmonic_basis.cache_clear()
        start = time.perf_counter()
        build()
        times.append(time.perf_counter() - start)
    return 1000 * min(times)


def main():
    print("| shape | k | sector | dim | row reduction | closed formula |")
    print("| --- | --- | --- | --- | --- | --- |")
    for m, n, k, sector in SHAPES:
        u = VariableUniverse.standard(m, n)
        old = harmonic_basis_by_nullspace(k, sector, u)
        assert harmonic_basis(k, sector, u).elements == old
        old_ms = best_ms(lambda: harmonic_basis_by_nullspace(k, sector, u))
        new_ms = best_ms(lambda: harmonic_basis(k, sector, u))
        print(f"| ({m},{n}) | {k} | {sector} | {len(old)} | "
              f"{old_ms:.1f} ms | {new_ms:.1f} ms |")


if __name__ == "__main__":
    main()
