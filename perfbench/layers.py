"""Per-layer tracing installed from outside the program.

`Tracer.install()` replaces each traced public function of `src/kproper`
with a timing wrapper, in every `kproper` module that holds a reference to
it.  Patching only the defining module would miss the copies that
`from .toric import is_ample` binds into the importing module, so every
binding of the same function object is swapped.  `uninstall()` puts the
originals back.

For each traced function the tracer records the call count, the total time
of its outermost calls, its self time (total minus the time of traced
calls made inside it) and, for the functions in DURATIONS, the duration of
every outermost call.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions whose calls are timed
TRACED = {
    "rationals": ("solve_linear_system", "solve_exact", "det"),
    "polytope": (
        "barycenter",
        "vertices",
        "fixed_subpolytope",
        "volume",
        "boundary_measure",
        "lattice_points",
    ),
    "toric": (
        "slope_quantities",
        "is_ample",
        "intersection_number",
        "moment_polytope",
        "fan_automorphisms",
        "mixed_volume_intersection",
    ),
    "alpha": ("symmetry_context", "alpha_invariant", "alpha_oracle"),
    "picard": ("pairing", "is_ample_picard", "slope_picard", "exceptional_curves"),
    "properness": ("feasible_scale_interval", "check_properness"),
    "cli": ("main", "render_report"),
}

DURATIONS = {"properness.feasible_scale_interval"}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.lattice_points = 0
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        durations = self.durations[name] if name in DURATIONS else None
        count_points = name == "polytope.lattice_points"
        active = Counter()
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                self_time[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                active[name] -= 1
                if not active[name]:
                    total[name] += elapsed
                    if durations is not None:
                        durations.append(elapsed)
            if count_points:
                self.lattice_points += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "kproper" or n.startswith("kproper."))
        ]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"kproper.{layer}")
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def ms(self, table, name) -> float:
        return table.get(name, 0.0) * 1000.0

    def percentile_ms(self, name, q) -> float:
        values = self.durations.get(name, [])
        return percentile(values, q) * 1000.0 if values else 0.0


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of values, interpolated between ranks."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def per_probe(numerator: int, probes: int) -> float:
    return numerator / probes if probes else 0.0


def layer_metrics(tracer: Tracer, cold_curves_ms: float) -> dict:
    """Every per-layer metric, by its BENCHMARK.json name, as (value, unit)."""
    t = tracer
    out: dict = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    fsi = "properness.feasible_scale_interval"
    probes = t.calls[fsi]
    put(f"{fsi}.calls", probes, "count")
    put(f"{fsi}.total_ms", t.ms(t.total, fsi), "ms")
    put(f"{fsi}.p50_ms", t.percentile_ms(fsi, 0.5), "ms")
    put(f"{fsi}.p90_ms", t.percentile_ms(fsi, 0.9), "ms")

    def calls_self_total(name):
        put(f"{name}.calls", t.calls[name], "count")
        put(f"{name}.self_ms", t.ms(t.self_time, name), "ms")
        put(f"{name}.total_ms", t.ms(t.total, name), "ms")

    def calls_total(name):
        put(f"{name}.calls", t.calls[name], "count")
        put(f"{name}.total_ms", t.ms(t.total, name), "ms")

    calls_self_total("properness.check_properness")
    put(
        "properness.certificates_per_probe",
        per_probe(t.calls["properness.check_properness"], probes),
        "ratio",
    )
    calls_self_total("alpha.symmetry_context")
    calls_self_total("alpha.alpha_invariant")
    put(
        "alpha.symmetry_context_per_probe",
        per_probe(t.calls["alpha.symmetry_context"], probes),
        "ratio",
    )
    for fname in ("barycenter", "vertices", "fixed_subpolytope", "volume", "boundary_measure"):
        calls_total(f"polytope.{fname}")
    calls_total("polytope.lattice_points")
    put("polytope.lattice_points.points", t.lattice_points, "count")
    put("alpha.alpha_oracle.calls", t.calls["alpha.alpha_oracle"], "count")
    put("alpha.alpha_oracle.self_ms", t.ms(t.self_time, "alpha.alpha_oracle"), "ms")
    for fname in TRACED["toric"]:
        calls_self_total(f"toric.{fname}")
    for fname in ("pairing", "is_ample_picard", "slope_picard"):
        calls_total(f"picard.{fname}")
    put("picard.pairings_per_probe", per_probe(t.calls["picard.pairing"], probes), "ratio")
    put("picard.exceptional_curves.cold_ms", cold_curves_ms, "ms")
    for fname in TRACED["rationals"]:
        put(f"rationals.{fname}.calls", t.calls[f"rationals.{fname}"], "count")
    put("cli.main.self_ms", t.ms(t.self_time, "cli.main"), "ms")
    calls_total("cli.render_report")
    return out


# Functions the workload must call (busy) or must never call (idle) in a
# traced run.  A busy function with zero calls means a wrapper missed a
# binding; an idle one with calls means the workload drifted.
_SURFACE_ALPHA = ("alpha.symmetry_context", "alpha.alpha_invariant")
_POLYTOPE = tuple(f"polytope.{f}" for f in TRACED["polytope"] if f != "lattice_points")
_PICARD = ("picard.pairing", "picard.is_ample_picard", "picard.slope_picard")
_ORACLE = ("alpha.alpha_oracle", "polytope.lattice_points")

COVERAGE = {
    "sweep-dp6": {
        "busy": (
            "properness.feasible_scale_interval",
            "properness.check_properness",
            *_SURFACE_ALPHA,
            *_POLYTOPE,
            "toric.slope_quantities",
            "toric.is_ample",
            "toric.intersection_number",
            "toric.moment_polytope",
            "toric.fan_automorphisms",
            "rationals.solve_exact",
            "cli.main",
            "cli.render_report",
        ),
        "idle": (*_PICARD, *_ORACLE, "toric.mixed_volume_intersection"),
    },
    "sweep-dp1": {
        "busy": (
            "properness.feasible_scale_interval",
            "properness.check_properness",
            *_PICARD,
            "cli.main",
            "cli.render_report",
        ),
        "idle": (*_SURFACE_ALPHA, *_POLYTOPE, *_ORACLE, "toric.mixed_volume_intersection"),
    },
    "check-mix": {
        "busy": (
            "properness.check_properness",
            *_SURFACE_ALPHA,
            *_POLYTOPE,
            *(f"toric.{f}" for f in TRACED["toric"]),
            *_PICARD,
            "picard.exceptional_curves",
            "rationals.solve_exact",
            "rationals.solve_linear_system",
            "rationals.det",
            "cli.main",
            "cli.render_report",
        ),
        "idle": ("properness.feasible_scale_interval", *_ORACLE),
    },
    "alpha-oracle": {
        "busy": (*_ORACLE, *_SURFACE_ALPHA, "polytope.vertices", "cli.main"),
        "idle": (
            "properness.feasible_scale_interval",
            "properness.check_properness",
            *_PICARD,
            "cli.render_report",
        ),
    },
}


def coverage_violations(tracer: Tracer, workload: str) -> list[str]:
    rules = COVERAGE[workload]
    out = [f"{name} recorded no calls" for name in rules["busy"] if not tracer.calls[name]]
    out += [
        f"{name} recorded {tracer.calls[name]} calls but should be idle"
        for name in rules["idle"]
        if tracer.calls[name]
    ]
    return out
