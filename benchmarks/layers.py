"""The layers the traced run wraps, the per-layer metrics read from its
spans, and what each metric is expected to move.

``PER_LAYER`` is the single list of per-layer metrics: BENCHMARK.json
names the same metrics, and the tests hold the ``zero_on`` predictions.
``moves`` names the end-to-end metric and workload a change to the layer
should move; ``zero_on`` lists the workloads where the layer is never
reached, so the metric reads zero and a change to the layer should leave
every end-to-end metric there unchanged.
"""

from __future__ import annotations

from inputs import WORKLOADS
from spans import Target


def _term_pairs(f, g):
    return {"superalg.sp_mul.term_pairs": len(f.terms) * len(g.terms)}


TARGETS = (
    Target("expr.parse", "supertransform.expr", "parse"),
    Target("expr.render", "ops", "render"),
    Target("fourier.super_fourier", "supertransform.fourier",
           "super_fourier"),
    Target("fourier.bosonic_fourier", "supertransform.fourier",
           "bosonic_fourier"),
    Target("fourier.fermionic_fourier", "supertransform.fourier",
           "fermionic_fourier"),
    Target("radon.radon", "supertransform.radon", "radon"),
    Target("radon.reduce_mod_sphere", "supertransform.radon",
           "reduce_mod_sphere"),
    Target("superalg.sp_mul", "supertransform.superalg", "sp_mul",
           measure=_term_pairs),
    Target("superalg.sp_rename", "supertransform.superalg", "sp_rename",
           kind="count"),
    Target("operators.scalar_square", "supertransform.operators",
           "scalar_square"),
    Target("operators.laplace", "supertransform.operators", "laplace"),
    Target("harmonics.harmonic_basis", "supertransform.harmonics",
           "harmonic_basis"),
    Target("linalg.nullspace", "supertransform._linalg", "nullspace"),
    Target("hermite.psi_span", "supertransform.hermite", "psi_span"),
    Target("fracfourier.frac_fourier", "supertransform.fracfourier",
           "frac_fourier"),
    Target("scalars.exact_mul", "supertransform.scalars",
           "ExactScalar.__mul__", kind="count"),
    Target("scalars.qqi_new", "supertransform.scalars", "QQi.__init__",
           kind="count"),
)

class Metric:
    __slots__ = ("name", "unit", "better", "read", "moves", "zero_on")

    def __init__(self, name, unit, better, read, moves, zero_on=()):
        self.name = name
        self.unit = unit
        self.better = better
        self.read = read
        self.moves = moves
        self.zero_on = zero_on


def _time(span):
    return lambda t: t.inclusive_s(span)


def _calls(span):
    return lambda t: t.calls(span)


def _count(key):
    return lambda t: t.counts[key]


def _self(span, *excluded):
    return lambda t: t.self_s(span, set(excluded))


_TRANSFORMS = ["ops_per_s@exact_transforms",
               "latency_tail_ms@exact_transforms"]
_EVERYWHERE = [f"{m}@{w}" for w in WORKLOADS
               for m in ("ops_per_s", "latency_p50_ms")]
_OPERATORS = ["ops_per_s@bases", "setup_s@fractional"]
_SCALARS = [f"ops_per_s@{w}" for w in WORKLOADS]

PER_LAYER = (
    Metric("expr.parse_s", "s", "lower", _time("expr.parse"),
           ["ops_per_s@exact_transforms"], zero_on=("bases",)),
    Metric("expr.render_s", "s", "lower", _time("expr.render"),
           ["ops_per_s@exact_transforms"]),
    Metric("fourier.bosonic_fourier_s", "s", "lower",
           _time("fourier.bosonic_fourier"), _TRANSFORMS,
           zero_on=("fractional", "bases")),
    Metric("fourier.fermionic_fourier_s", "s", "lower",
           _time("fourier.fermionic_fourier"), _TRANSFORMS,
           zero_on=("fractional", "bases")),
    Metric("fourier.super_fourier.calls", "count", "lower",
           _calls("fourier.super_fourier"), _TRANSFORMS,
           zero_on=("fractional", "bases")),
    Metric("radon.radon_self_s", "s", "lower",
           _self("radon.radon", "fourier.super_fourier"),
           ["ops_per_s@exact_transforms"], zero_on=("fractional", "bases")),
    Metric("radon.reduce_mod_sphere.calls", "count", "lower",
           _calls("radon.reduce_mod_sphere"), ["ops_per_s@exact_transforms"],
           zero_on=("fractional", "bases")),
    Metric("superalg.sp_mul.calls", "count", "lower",
           _calls("superalg.sp_mul"), _EVERYWHERE),
    Metric("superalg.sp_mul.term_pairs", "count", "lower",
           _count("superalg.sp_mul.term_pairs"), _EVERYWHERE),
    Metric("superalg.sp_mul_s", "s", "lower", _time("superalg.sp_mul"),
           _EVERYWHERE),
    Metric("superalg.sp_rename.calls", "count", "lower",
           _count("superalg.sp_rename"), _EVERYWHERE),
    Metric("operators.scalar_square_s", "s", "lower",
           _time("operators.scalar_square"), _OPERATORS,
           zero_on=("exact_transforms",)),
    Metric("operators.scalar_square.calls", "count", "lower",
           _calls("operators.scalar_square"), _OPERATORS,
           zero_on=("exact_transforms",)),
    Metric("operators.laplace_s", "s", "lower", _time("operators.laplace"),
           _OPERATORS, zero_on=("exact_transforms",)),
    Metric("operators.laplace.calls", "count", "lower",
           _calls("operators.laplace"), _OPERATORS,
           zero_on=("exact_transforms",)),
    Metric("harmonics.harmonic_basis_s", "s", "lower",
           _time("harmonics.harmonic_basis"), ["ops_per_s@bases"],
           zero_on=("exact_transforms",)),
    Metric("harmonics.harmonic_basis.calls", "count", "lower",
           _calls("harmonics.harmonic_basis"), ["ops_per_s@bases"],
           zero_on=("exact_transforms",)),
    Metric("linalg.nullspace_s", "s", "lower", _time("linalg.nullspace"),
           ["ops_per_s@bases"], zero_on=("exact_transforms",)),
    Metric("linalg.nullspace.calls", "count", "lower",
           _calls("linalg.nullspace"), ["ops_per_s@bases"],
           zero_on=("exact_transforms",)),
    Metric("hermite.psi_span_s", "s", "lower", _time("hermite.psi_span"),
           ["setup_s@fractional"], zero_on=("exact_transforms", "bases")),
    Metric("hermite.psi_span.calls", "count", "lower",
           _calls("hermite.psi_span"), ["setup_s@fractional"],
           zero_on=("exact_transforms", "bases")),
    Metric("hermite.psi_span.hit_ratio", "ratio", "higher",
           lambda t: t.share_without_child("hermite.psi_span",
                                           "harmonics.harmonic_basis"),
           ["setup_s@fractional"], zero_on=("exact_transforms", "bases")),
    Metric("fracfourier.frac_fourier_self_s", "s", "lower",
           _self("fracfourier.frac_fourier", "hermite.psi_span",
                 "fourier.super_fourier"),
           ["ops_per_s@fractional", "latency_tail_ms@fractional"],
           zero_on=("exact_transforms", "bases")),
    Metric("scalars.exact_mul.calls", "count", "lower",
           _count("scalars.exact_mul"), _SCALARS),
    Metric("scalars.qqi_new.calls", "count", "lower",
           _count("scalars.qqi_new"), _SCALARS),
)

# Traced wall time over untraced wall time of the same set-up and pass.
TRACE_OVERHEAD = Metric("trace_overhead", "ratio", "lower", None, [])


def read_all(tracer):
    return {m.name: m.read(tracer) for m in PER_LAYER}
