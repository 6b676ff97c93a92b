"""Seeded workloads for the kproper benchmark, and the gate on every output.

Each workload is a list of CLI requests, generated from the seed before
any timing starts, and passed to `kproper.cli.main` one at a time by a
single closed-loop client.  The program sees only the generated argv and
the config files written into the work directory.

Every request carries an expectation.  Where an independent route exists
it is computed here, outside the timed loop: the feasible scale interval
of a family, the closed-form dp6 alpha, the known exceptional curve
counts, the certified windows, the lct oracle bound.  Every other report
must exit 0 and round-trip through `parse_report`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction as F
from math import ceil, floor
from typing import Iterator

import kproper.cli
import speed
from kproper.picard import BlowupSurface, PicardClass, is_ample_picard
from kproper.properness import dp1_family, dp6_family, feasible_scale_interval

WORKLOADS = ("sweep-dp6", "sweep-dp1", "check-mix", "alpha-oracle")

# known numbers of (-1)-curves on the blowup of P^2 at r general points
CURVE_COUNTS = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}

DP6_WINDOW = (F(5, 6), F(6, 5))
DP1_WINDOW = (F(4, 5), F(10, 9))


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple
    expect: tuple


@dataclass
class Result:
    request: Request
    code: int
    out: str
    seconds: float  # latency, at reference core speed when normalized
    wall: float  # wall time the client spent on the request


@dataclass
class Workload:
    warmup: list
    stream: Iterator[Request]  # endless, generated lazily from the seed
    min_ops: int  # fewest requests a timed run makes
    trace_ops: int  # requests in the fixed traced slice


def call(request: Request, normalize: bool = True) -> Result:
    """One request through the public entry point, stdout captured.  With
    `normalize` the latency is scaled to the reference core speed."""
    out, err = io.StringIO(), io.StringIO()
    sampler = speed.Sampler() if normalize else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler:
            code = kproper.cli.main(list(request.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        err.write(traceback.format_exc())
        code = -1
    wall = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"request {request.kind} {list(request.argv)} exited {code}:\n")
        sys.stderr.write(err.getvalue())
    seconds = sampler.normalized() if normalize else wall
    return Result(request, code, out.getvalue(), seconds, wall)


def run_stream(requests, seconds: float, min_ops: int, normalize: bool = True) -> list:
    """Send requests one at a time until `seconds` of wall time went into
    them and `min_ops` are done.  Only the requests are timed, so generating
    the next inputs between them costs no measured time."""
    results, busy = [], 0.0
    for request in requests:
        if len(results) >= min_ops and busy >= seconds:
            break
        results.append(call(request, normalize))
        busy += results[-1].wall
    return results


# ---------------------------------------------------------------------------
# the gate


def verify(result: Result) -> str | None:
    """None when the output matches the request's expectation, else why not."""
    if result.code != 0:
        return f"exit code {result.code}"
    kind, *args = result.request.expect
    try:
        if kind in ("verdict", "report", "sweep"):
            report = kproper.cli.parse_report(result.out)
            if kproper.cli.render_report(report) != result.out:
                return "report does not round-trip through parse_report"
            if kind == "verdict" and report.proper != args[0]:
                return f"verdict {report.verdict!r}, expected proper={args[0]}"
            if kind == "sweep":
                return _verify_sweep(json.loads(result.out), *args)
            return None
        data = json.loads(result.out)
        if kind == "alpha":
            return None if F(data["alpha"]) == args[0] else f"alpha {data['alpha']} != {args[0]}"
        if kind == "alpha-positive":
            return None if F(data["alpha"]) > 0 else f"alpha {data['alpha']} not positive"
        if kind == "curves":
            n = args[0]
            if data["count"] != n or len(data["classes"]) != n or sum(data["census"].values()) != n:
                return f"curve count {data['count']}, expected {n}"
            return None
        if kind == "oracle":
            alpha, oracle = F(data["alpha"]), F(data["oracle"])
            if oracle < alpha:
                return f"oracle {oracle} below the vertex formula {alpha}"
            if args[0] and not alpha == oracle == 1:
                return f"anticanonical dp6: alpha {alpha}, oracle {oracle}, expected 1"
            return None
    except (ValueError, KeyError, TypeError, kproper.cli.KProperError) as exc:
        return f"unreadable output: {exc!r}"
    return f"unknown expectation {kind!r}"


def _verify_sweep(data, lo, hi, tol) -> str | None:
    windows = data["intervals"]
    if len(windows) != 1:
        return f"{len(windows)} windows, expected 1"
    for key, target in (("lo_bracket", lo), ("hi_bracket", hi)):
        left, right = (F(x) for x in windows[0][key])
        if not left <= target <= right:
            return f"{key} [{left}, {right}] misses {target}"
        if right - left > tol:
            return f"{key} wider than refine_tol"
    checks = data["endpoint_checks"]
    if len(checks) != 2 or not all(c["confirmed"] for c in checks):
        return "conjectured endpoints not all confirmed"
    return None


def count_failures(results) -> int:
    failed = 0
    for result in results:
        reason = verify(result)
        if reason is not None:
            failed += 1
            sys.stderr.write(f"FAILED {result.request.kind} {list(result.request.argv)}: {reason}\n")
    return failed


# ---------------------------------------------------------------------------
# input generation


def q(x) -> str:
    return str(F(x))


def coeffs_arg(values) -> str:
    # the "=" form keeps argparse from reading a leading minus as an option
    return "--coeffs=" + ",".join(q(v) for v in values)


def between(rng, lo, hi) -> F:
    """A rational strictly inside (lo, hi), denominator drawn from 1..100
    and raised only as far as the interval needs."""
    lo, hi = F(lo), F(hi)
    den = rng.randint(1, 100)
    while True:
        first, last = floor(lo * den) + 1, ceil(hi * den) - 1
        if first <= last:
            return F(rng.randint(first, last), den)
        den += 1


def dp6_ample(coeffs) -> bool:
    # every boundary curve of the hexagon is a (-1)-curve: D.D_i = a_{i-1} + a_{i+1} - a_i
    return all(coeffs[i - 1] + coeffs[(i + 1) % 6] > coeffs[i] for i in range(6))


def random_dp6(rng):
    while True:
        coeffs = [between(rng, -1, 3) for _ in range(6)]
        if dp6_ample(coeffs):
            return coeffs


def random_picard(rng, r: int):
    while True:
        t = between(rng, F(1, 2), 3)
        coords = [3 * t + between(rng, -1, 1)] + [t + between(rng, F(-1, 2), F(1, 2)) for _ in range(r)]
        if is_ample_picard(PicardClass(BlowupSurface(r), tuple(coords))):
            return coords


def dervan_bound(lam) -> F:
    return min(F(1), 1 / (2 - F(lam)))


class _Families:
    """Per-run lambda pools for the two builtin families, with each lambda's
    feasible scale interval computed once."""

    def __init__(self, rng):
        self.rng = rng
        self.pools = {}
        for name, family, window, outside in (
            ("dp6", dp6_family(), DP6_WINDOW, ((F(1, 2), DP6_WINDOW[0]), (DP6_WINDOW[1], F(2)))),
            ("dp1", dp1_family(), DP1_WINDOW, ((F(1, 5), DP1_WINDOW[0]), (DP1_WINDOW[1], F(4, 3)))),
        ):
            lams = [between(rng, *window) for _ in range(6)]
            lams += [between(rng, *side) for side in outside]
            self.pools[name] = [(lam, feasible_scale_interval(family, lam)) for lam in lams]

    def draw(self, name):
        """(lambda, a, a inside the feasible interval) for a seeded class a L_lambda."""
        rng = self.rng
        lam, interval = rng.choice(self.pools[name])
        lo, hi = interval.lo, interval.hi
        if interval.is_empty:
            return lam, between(rng, F(1, 2), 3), False
        roll = rng.random()
        if roll < 0.55:
            return lam, between(rng, lo, hi), True
        if roll < 0.6:
            return lam, hi if lo == 0 else rng.choice((lo, hi)), False
        if roll < 0.8 and lo > 0:
            return lam, between(rng, lo / 2, lo), False
        return lam, between(rng, hi, 2 * hi), False


P3_FAN = {
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
}
P1_CUBED_FAN = {
    "dim": 3,
    "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    "max_cones": [[i, j, k] for i in (0, 1) for j in (2, 3) for k in (4, 5)],
}

# Requests per block of 50, by kind.  Sorted by latency the kinds fall into
# four groups: cheap requests (under about 15 ms, 36%), dp6 full-group checks
# (about 20-25 ms, 32%), 240-curve checks (about 40-60 ms, 28%) and 3-fold
# checks (about 0.05-0.2 s, 4%).  p50 then sits inside the dp6 group and p90
# inside the 240-curve group, away from the boundaries between groups.
MIX_BLOCK = (
    ("slice", 3),
    ("p2", 2),
    ("curves", 2),
    ("picard-small", 4),
    ("fano", 2),
    ("alpha-family", 2),
    ("alpha-random", 3),
    ("dp6-family", 10),
    ("dp6-random", 6),
    ("dp1-family", 9),
    ("picard-r8", 5),
    ("threefold", 2),
)


class _MixGenerator:
    def __init__(self, rng, workdir):
        self.rng = rng
        self.workdir = workdir
        self.families = _Families(rng)
        self.files = 0
        self.fans = {
            "p3": self._write(P3_FAN),
            "p1^3": self._write(P1_CUBED_FAN),
        }

    def _write(self, data) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"input-{self.files}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    def block(self):
        kinds = [kind for kind, count in MIX_BLOCK for _ in range(count)]
        self.rng.shuffle(kinds)
        return [getattr(self, "_" + kind.replace("-", "_"))() for kind in kinds]

    def _epsilon(self):
        return q(between(self.rng, F(1, 4), 2)) if self.rng.random() < 0.5 else "1"

    def _slice(self):
        rng = self.rng
        n = rng.choice((2, 3))
        l_pow_n, k_dot_l = between(rng, 0, 5), between(rng, 0, 5)
        curves = [(between(rng, 0, 3), between(rng, 0, 3)) for _ in range(rng.randint(1, 4))]
        # c1 < 0 criterion, by hand: (-n mu) L - (n-1) K nef, mu = -K.L^{n-1} / L^n
        factor = n * k_dot_l / l_pow_n
        proper = all(factor * lc - (n - 1) * kc >= 0 for lc, kc in curves)
        path = self._write({
            "n": n,
            "l_pow_n": q(l_pow_n),
            "k_dot_l_nm1": q(k_dot_l),
            "k_pow_n": q(between(rng, 0, 5)),
            "test_curves": [
                {"name": f"curve {i}", "L": q(lc), "K": q(kc)} for i, (lc, kc) in enumerate(curves)
            ],
        })
        return Request("slice", ("check", "--mode", "negative-c1", "--slice", path), ("verdict", proper))

    def _p2(self):
        rng = self.rng
        while True:
            coeffs = [between(rng, -1, 2) for _ in range(3)]
            if sum(coeffs) > 0:
                break
        argv = ("check", "--builtin", "p2", coeffs_arg(coeffs),
                "--group", rng.choice(("full", "torus")), "--epsilon", self._epsilon())
        return Request("p2", argv, ("report",))

    def _curves(self):
        r = self.rng.choice(tuple(CURVE_COUNTS))
        return Request("curves", ("picard", "curves", "--r", str(r)), ("curves", CURVE_COUNTS[r]))

    def _picard_check(self, kind, r):
        rng = self.rng
        argv = ("check", "--builtin", "dp1", coeffs_arg(random_picard(rng, r)),
                "--alpha", q(between(rng, 0, 1)), "--epsilon", self._epsilon())
        return Request(kind, argv, ("report",))

    def _picard_small(self):
        return self._picard_check("picard-small", self.rng.randint(3, 7))

    def _picard_r8(self):
        return self._picard_check("picard-r8", 8)

    def _fano(self):
        rng = self.rng
        if rng.random() < 0.5:
            # alpha(-K) = 1 on the hexagon with its full symmetry group
            argv = ("check", "--mode", "fano", "--builtin", "dp6", coeffs_arg(random_dp6(rng)))
            return Request("fano", argv, ("verdict", True))
        alpha = between(rng, 0, 1)
        argv = ("check", "--mode", "fano", "--builtin", "dp1",
                coeffs_arg(random_picard(rng, rng.randint(3, 8))), "--alpha", q(alpha))
        return Request("fano", argv, ("verdict", alpha > F(2, 3)))

    def _alpha_family(self):
        rng = self.rng
        lam, a = between(rng, F(1, 2), 2), between(rng, F(1, 2), 3)
        argv = ("alpha", "dp6", coeffs_arg((a, a * lam) * 3), "--group", "full")
        return Request("alpha-family", argv, ("alpha", min(1 / a, 1 / (a * lam))))

    def _alpha_random(self):
        rng = self.rng
        argv = ("alpha", "dp6", coeffs_arg(random_dp6(rng)),
                "--group", rng.choice(("full", "torus", "torus")))
        return Request("alpha-random", argv, ("alpha-positive",))

    def _dp6_family(self):
        lam, a, proper = self.families.draw("dp6")
        argv = ("check", "--builtin", "dp6", coeffs_arg((a, a * lam) * 3))
        return Request("dp6-family", argv, ("verdict", proper))

    def _dp6_random(self):
        argv = ("check", "--builtin", "dp6", coeffs_arg(random_dp6(self.rng)),
                "--epsilon", self._epsilon())
        return Request("dp6-random", argv, ("report",))

    def _dp1_family(self):
        lam, a, proper = self.families.draw("dp1")
        argv = ("check", "--builtin", "dp1", coeffs_arg((3 * a,) + (a,) * 7 + (a * lam,)),
                "--alpha", q(dervan_bound(lam) / a))
        return Request("dp1-family", argv, ("verdict", proper))

    def _threefold(self):
        rng = self.rng
        if rng.random() < 0.5:
            fan = "p3"
            while True:
                coeffs = [between(rng, -1, 2) for _ in range(4)]
                if sum(coeffs) > 0:
                    break
        else:
            fan = "p1^3"
            while True:
                coeffs = [between(rng, -1, 2) for _ in range(6)]
                if all(coeffs[2 * j] + coeffs[2 * j + 1] > 0 for j in range(3)):
                    break
        argv = ("check", "--fan", self.fans[fan], coeffs_arg(coeffs))
        if rng.random() < 0.5:
            argv += ("--alpha", q(between(rng, 0, 1)))
        return Request("threefold", argv, ("report",))


def _sweeps(rng, workdir, family, tiny):
    """Certified sweeps at acceptance settings, each from a seeded offset
    delta in [0, 1/100) of the grid start, so every sweep probes its own grid
    and bisection points."""
    lo_target, hi_target = DP6_WINDOW if family == "dp6" else DP1_WINDOW
    tol = F(1, 1000) if tiny else F(1, 10**6)
    for index in itertools.count():
        delta = F(rng.randrange(100), 10000)
        config = {
            "family": family,
            "epsilon": "1",
            "lambda_min": q(F(1, 2) + delta if family == "dp6" else delta),
            "lambda_max": "2" if family == "dp6" else "4/3",
            "step": "1/10" if tiny else "1/100",
            "refine_tol": q(tol),
            "conjectured_endpoints": [q(lo_target), q(hi_target)],
        }
        path = os.path.join(workdir, f"sweep-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        yield Request(f"sweep-{family}", ("sweep", "--config", path),
                      ("sweep", lo_target, hi_target, tol))


# Integral ample dp6 classes with coefficients 1..3; their oracle at depth 3
# takes about 40-60 ms, a quarter of the anticanonical depth-12 request.
# Sorted by latency the stream is then three small requests to one large,
# so p50 falls inside the small group and p90 inside the large one.
ORACLE_CLASSES = tuple(
    c for c in itertools.product(range(1, 4), repeat=6) if dp6_ample(c)
)
ORACLE_SMALL_DEPTH = 3
ORACLE_SMALL_PER_BATCH = 3


def _oracle_batches(rng, tiny):
    """The anticanonical class at depth 12, then seeded small classes."""
    while True:
        yield Request(
            "oracle-anticanonical",
            ("alpha", "dp6", "--coeffs=1,1,1,1,1,1", "--group", "full", "--oracle-depth", "12"),
            ("oracle", True),
        )
        for _ in range(ORACLE_SMALL_PER_BATCH):
            argv = ("alpha", "dp6", coeffs_arg(rng.choice(ORACLE_CLASSES)), "--group", "full",
                    "--oracle-depth", str(1 if tiny else ORACLE_SMALL_DEPTH))
            yield Request("oracle-small", argv, ("oracle", False))


def _mix(gen):
    while True:
        yield from gen.block()


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """The seeded requests of one workload; input files go to `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    if name in ("sweep-dp6", "sweep-dp1"):
        family = name.split("-")[1]
        lam = F(1) if family == "dp6" else F(9, 10)
        warm = ("check", "--builtin", family)
        if family == "dp6":
            warm += (coeffs_arg((1, lam) * 3),)
        else:
            warm += (coeffs_arg((3,) + (1,) * 7 + (lam,)), "--alpha", q(dervan_bound(lam)))
        return Workload(
            [Request("warmup", warm, ("report",))],
            _sweeps(rng, workdir, family, tiny),
            min_ops=1 if tiny else 2,
            trace_ops=1,
        )
    if name == "check-mix":
        gen = _MixGenerator(rng, workdir)
        return Workload(gen.block(), _mix(gen), min_ops=1, trace_ops=2 * sum(n for _, n in MIX_BLOCK))
    if name == "alpha-oracle":
        warmup = [Request("warmup", ("alpha", "dp6", "--coeffs=1,1,1,1,1,1", "--oracle-depth", "1"),
                          ("oracle", True))]
        batch = 1 + ORACLE_SMALL_PER_BATCH
        return Workload(warmup, _oracle_batches(rng, tiny), min_ops=batch, trace_ops=4 * batch)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
