"""kproper benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload check-mix --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from `src/` next to this
directory.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, measured with no
tracing; with `--trace 1` they are the per-layer metrics, measured on a
fixed slice of the workload with the layer wrappers of `layers.py`
installed.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

# Cost a fresh `kproper ...` invocation pays before its first answer:
# interpreter start, `import kproper`, the CLI parser and the lazily built
# exceptional-curve table that the first dp1 request fills.  The speed
# sampler runs through it, to normalize the wall time like a request's.
SETUP_SNIPPET = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import speed
speed.kernel()
with speed.Sampler() as sampler:
    import kproper, kproper.cli
    kproper.cli.build_parser()
    from kproper.picard import exceptional_curves
    start = time.perf_counter()
    exceptional_curves(8)
    cold = time.perf_counter() - start
print(cold, kproper.__file__, *sampler.samples)
"""


class BenchError(Exception):
    pass


def measure_setup(repeats: int):
    """Median time of a fresh interpreter doing the set-up, in s at reference
    core speed, and the median cold exceptional_curves(8) wall time inside
    it, in ms."""
    snippet = SETUP_SNIPPET.format(src=str(SRC), bench=str(BENCH))
    walls, cold = [], []
    # the first spawn may compile bytecode; it is not measured
    for i in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", snippet],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        seconds, module_file, *samples = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up imported kproper from {module_file}, not {SRC}")
        samples = [float(x) for x in samples]
        if i:
            walls.append(speed.normalize(wall - sum(samples), samples))
            cold.append(float(seconds) * 1000.0)
    return statistics.median(walls), statistics.median(cold)


def git_sha() -> str:
    """The checked-out commit read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }


def _summarize(results) -> None:
    """Median latency per request kind, to stderr, for reading a run by eye."""
    by_kind = defaultdict(list)
    for r in results:
        by_kind[r.request.kind].append(r.seconds * 1000.0)
    for kind, values in sorted(by_kind.items()):
        sys.stderr.write(f"  {kind:22s} n={len(values):4d} median {statistics.median(values):9.2f} ms\n")


def end_to_end(work, setup_s, seconds):
    import layers
    import workloads

    warm = [workloads.call(r) for r in work.warmup]
    results = workloads.run_stream(work.stream, seconds, work.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [r.seconds for r in results]
    walls = [r.wall for r in results]
    _summarize(results)
    # the same latencies as measured, before scaling to the reference speed
    print("perfbench wall " + json.dumps({
        "request_ms.p50": statistics.median(walls) * 1000.0,
        "request_ms.p90": layers.percentile(walls, 0.9) * 1000.0,
        "requests": len(walls),
    }), flush=True)
    metrics = {
        "setup_s": (setup_s, "s"),
        "request_ms.p50": (statistics.median(latencies) * 1000.0, "ms"),
        "request_ms.p90": (layers.percentile(latencies, 0.9) * 1000.0, "ms"),
        # one closed-loop client: completed requests over the time spent in them
        "requests_per_s": (len(results) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return warm + results, metrics, []


def per_layer(work, name, cold_ms):
    import layers
    import workloads

    warm = [workloads.call(r, normalize=False) for r in work.warmup]
    ops = list(itertools.islice(work.stream, work.trace_ops))
    plain = workloads.run_stream(ops, 0, len(ops), normalize=False)
    tracer = layers.Tracer()
    with tracer:
        traced = workloads.run_stream(ops, 0, len(ops), normalize=False)
    metrics = layers.layer_metrics(tracer, cold_ms)
    violations = layers.coverage_violations(tracer, name)
    for v in violations:
        sys.stderr.write(f"COVERAGE {name}: {v}\n")
    metrics["trace.overhead_s"] = (
        sum(r.seconds for r in traced) - sum(r.seconds for r in plain), "s"
    )
    metrics["trace.coverage_violations"] = (len(violations), "count")
    return warm + plain + traced, metrics, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke size: coarse sweeps, shallow oracle, one set-up spawn",
    )
    args = parser.parse_args(argv)

    # every assert the program carries must stay on
    if sys.flags.optimize:
        sys.stderr.write("error: the benchmark refuses to run under python -O\n")
        return 2
    if not (SRC / "kproper" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kproper sources under {SRC}\n")
        return 2
    os.environ.pop("KPROPER_PARALLEL", None)
    sys.path.insert(0, str(SRC))
    import kproper

    if not Path(kproper.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: kproper imported from {kproper.__file__}, not {SRC}\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOADS)}\n")
        return 2
    print("perfbench env " + json.dumps(environment(args), sort_keys=True), flush=True)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, cold_ms = measure_setup(1 if args.tiny else SETUP_REPEATS)
        work = workloads.build(args.workload, args.seed, workdir, args.tiny)
        if args.trace:
            checked, metrics, violations = per_layer(work, args.workload, cold_ms)
        else:
            checked, metrics, violations = end_to_end(work, setup_s, args.seconds)
        failed = workloads.count_failures(checked)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0 and not violations,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
