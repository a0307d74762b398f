"""Seeded input generator for the benchmark workloads.

Every operation is a dict holding only expression text and integer
parameters, exactly what the command line would receive: the operation
name, the universe ``m`` and ``n``, and per operation ``expr`` (text),
``sign`` (+1 or -1), ``a_num``/``a_den`` (fractional order), ``j``/``k``
(Hermite and decomposition degrees) or ``eigen`` (radon eigenbasis
combination as ``[j, k, l]`` triples with one coefficient text each).
Half of the radon inputs are Gaussian-class expressions like the
fourier inputs; the other half are eigenbasis combinations, whose
result has a closed form to check against.

Inputs are drawn once and never filtered by outcome: an input the
program refuses stays in the list and counts as a failed operation.
The bases workload enumerates its small parameter space, so there the
seed only sets the order.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("exact_transforms", "fractional", "bases")

EXACT_UNIVERSES = ((1, 1), (2, 1), (3, 1), (0, 2), (2, 2), (1, 3))
FRACTIONAL_UNIVERSES = ((1, 1), (1, 2), (2, 1), (2, 2), (0, 2))
BASES_UNIVERSES = ((2, 1), (3, 1), (2, 2), (3, 2))
FRACTIONAL_ORDERS = ((1, 3), (1, 2), (-1, 4), (2, 3), (-1, 3), (3, 4))

# Operations drawn per universe and kind in one round; one round of a
# workload takes a few seconds on a 2-core machine, and the traced run
# makes one pass over it.
PER_UNIVERSE = {
    "exact_transforms": {"fourier": 16, "radon": 16, "parseval": 4},
    "fractional": {"fracfourier": 20},
    "bases": {"hermite": 28, "decompose": 10},
}

# Seconds one round of each workload takes on the nominal host of
# ``worker.REFERENCE_NOMINAL_S``.  A timed run draws as many rounds as
# fill its seconds and attempts every input once, so the same seed gives
# the same work, and the tail is set by many distinct inputs.
ROUND_S = {"exact_transforms": 2.9, "fractional": 2.8, "bases": 3.2}


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_S[workload]))


def _coefficient(rng, parts=None):
    """Text of a ring element sum q * sqrt2^eps * pi^(b/2) with `parts`
    terms (one or two), q a complex rational with small parts."""
    out = []
    for _ in range(parts or rng.randint(1, 2)):
        re = f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}"
        im = rng.randint(-3, 3)
        if im:
            op = "+" if im > 0 else "-"
            q = f"({re} {op} {abs(im)}/{rng.randint(1, 3)}*i)"
        else:
            q = f"({re})"
        factors = [q]
        if rng.random() < 0.5:
            factors.append("sqrt2")
        b = rng.randint(-2, 2)
        if b:
            factors.append(f"pi^({b}/2)")
        out.append("*".join(factors))
    return out[0] if len(out) == 1 else "(" + " + ".join(out) + ")"


def _monomial(rng, m, n, degree, fermionic):
    """Factors of a monomial of the given degree with `fermionic` of them
    distinct fermionic variables (as many as the universe allows)."""
    fermionic = min(fermionic, 2 * n) if m else min(degree, 2 * n)
    bos = [0] * m
    for _ in range(degree - fermionic if m else 0):
        bos[rng.randrange(m)] += 1
    factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
               for i, e in enumerate(bos) if e]
    factors += [f"q{j + 1}"
                for j in sorted(rng.sample(range(2 * n), fermionic))]
    return factors


# Cost grows with the term count, the degree and the fermionic content,
# so the i-th input of a kind takes these from cycles rather than draws:
# every seed then has the same mix of shapes, and seeds differ in
# variables, coefficients and order only.
MAX_TERMS = 8
MAX_DEGREE = 4


def _terms(i):
    return 1 + i % MAX_TERMS


def gaussian_text(rng, m, n, terms, offset=0):
    """A Gaussian-class input: `terms` monomials of degree at most
    MAX_DEGREE, each with a ring coefficient, times G.

    Term t, with s = offset + t, has degree d = s mod (MAX_DEGREE + 1),
    of which (s div (MAX_DEGREE + 1)) mod (d + 1) fermionic, and a
    coefficient of 1 + s mod 2 ring terms; variables and values are
    drawn.
    """
    out = []
    for t in range(terms):
        s = offset + t
        degree = s % (MAX_DEGREE + 1)
        fermionic = s // (MAX_DEGREE + 1) % (degree + 1)
        factors = [_coefficient(rng, 1 + s % 2)]
        factors += _monomial(rng, m, n, degree, fermionic)
        out.append("*".join(factors + ["G"]))
    return " + ".join(out)


def _exact_ops(rng, m, n, rounds):
    counts = PER_UNIVERSE["exact_transforms"]
    ops = []
    for i in range(counts["fourier"] * rounds):
        ops.append({"op": "fourier", "m": m, "n": n,
                    "sign": rng.choice((1, -1)),
                    "expr": gaussian_text(rng, m, n, _terms(i), i)})
    if m:
        # with one bosonic variable the harmonics stop at degree 2n + 1
        max_k = 4 if m > 1 else min(4, 2 * n + 1)
        for i in range(counts["radon"] * rounds):
            e = i // 2
            if i % 2 == 0:
                ops.append({"op": "radon", "m": m, "n": n,
                            "expr": gaussian_text(rng, m, n, _terms(e), e)})
                continue
            eigen, coeffs = [], []
            for t in range(1 + e % 2):
                k = e % (max_k + 1) if t == 0 else rng.randint(0, max_k)
                j = rng.randint(0, (4 - k) // 2)
                eigen.append([j, k, rng.randrange(1 << 16)])
                coeffs.append(_coefficient(rng))
            ops.append({"op": "radon", "m": m, "n": n,
                        "eigen": eigen, "coeffs": coeffs})
    for i in range(counts["parseval"] * rounds):
        ops.append({"op": "parseval", "m": m, "n": n,
                    "expr": [gaussian_text(rng, m, n, _terms(i), i),
                             gaussian_text(rng, m, n,
                                           MAX_TERMS + 1 - _terms(i), i)]})
    return ops


def _fractional_ops(rng, m, n, rounds):
    ops = []
    for i in range(PER_UNIVERSE["fractional"]["fracfourier"] * rounds):
        num, den = rng.choice(FRACTIONAL_ORDERS)
        ops.append({"op": "fracfourier", "m": m, "n": n,
                    "a_num": num, "a_den": den,
                    "expr": gaussian_text(rng, m, n, _terms(i), i)})
    return ops


# Every Hermite index pair of degree 2j + k in 2..6.
HERMITE_PAIRS = tuple((j, deg - 2 * j) for deg in range(2, 7)
                      for j in range(deg // 2 + 1))


def _bases_ops(rng, m, n, rounds):
    counts = PER_UNIVERSE["bases"]
    ops = []
    for i in range(counts["hermite"] * rounds):
        j, k = HERMITE_PAIRS[i % len(HERMITE_PAIRS)]
        ops.append({"op": "hermite", "m": m, "n": n, "j": j, "k": k})
    for i in range(counts["decompose"] * rounds):
        ops.append({"op": "decompose", "m": m, "n": n, "k": 2 + i % 5})
    return ops


_DRAW = {
    "exact_transforms": (EXACT_UNIVERSES, _exact_ops),
    "fractional": (FRACTIONAL_UNIVERSES, _fractional_ops),
    "bases": (BASES_UNIVERSES, _bases_ops),
}


def content(op):
    """An operation without its id (or the text made from it), as a key:
    equal for identical inputs."""
    return json.dumps({k: v for k, v in op.items() if k not in ("id", "text")},
                      sort_keys=True)


def universes(workload):
    return _DRAW[workload][0]


def generate(workload, seed, rounds=1):
    """The workload's operations for this seed, `rounds` rounds of them,
    in execution order."""
    if workload not in _DRAW:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    universe_list, draw = _DRAW[workload]
    ops = []
    for m, n in universe_list:
        ops.extend(draw(rng, m, n, rounds))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
