"""Benchmark of thompsonf's two user paths and its element calculator.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from its `src/` directory,
and the run stops with an error if that source is missing. One closed-loop
client on one thread sends each request after the previous one completes.
Workloads (see workloads.py for why each exists):

* corpus, x0_ladder: a request synthesizes a certified partner g for f
  (word text + target -> certificate JSON), verifies the genuine JSON
  (PASS), then checks a tampered copy (the expected FAIL code).
* long_words: a request is one element-calculator round on a long word.

--trace 0 measures end to end. The run repeats whole cycles of the
workload's request mix until --seconds have passed; set-up (interpreter
start, import, input generation, warm-up) is timed separately in fresh
interpreters. --trace 1 takes a fixed, seeded prefix of the requests, runs
it untraced and then with every layer function wrapped, and reports
per-layer metrics; its length does not depend on --seconds, so its counts
repeat exactly for a seed.

Every time in the metrics is scaled to a reference pace: short slices of a
fixed pure-Python loop (reference.py) run between the requests and around
each set-up probe, and each timing is multiplied by the scale of the slices
near it. A slow spell of a shared machine then moves the slices and the
work together. The unscaled timings are kept in the record.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. The full record (every metric with its unit, tail
percentiles with their sample counts, digests, environment) is written to
bench/out/, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-up is timed in fresh interpreters, half of them before the measured
# loop and half after, so one slow spell of a shared machine moves only
# some of the samples behind the reported median
SETUP_PROBES = 8
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it

# metrics the last output line carries; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
OPS = {"cert": ("synth", "verify", "reject"), "calc": ("calc",)}


def load_package():
    init = SRC / "thompsonf" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source {init.relative_to(ROOT)} not found; "
                         "run from a thompsonf checkout")
    sys.path.insert(0, str(SRC))
    import thompsonf

    if Path(thompsonf.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported thompsonf from {thompsonf.__file__}, not {init}")
    return thompsonf


def set_up(name: str, seed: int, smoke: bool = False):
    """Import, generate the inputs and run the warm-up requests."""
    from workloads import Runner, make_workload

    lib = load_package()
    workload = make_workload(name, seed, smoke)
    runner = Runner(lib, workload)
    for req in workload.warmup:
        runner.run(req)
    warm_errors = list(runner.errors)
    runner.errors.clear()
    runner.outputs.clear()
    runner.prev = None
    return lib, workload, runner, warm_errors


def probe_setup(name: str, seed: int, smoke: bool, probes: int) -> list[dict]:
    """Wall time of `probes` fresh interpreters that each only set up.

    Each probe is bracketed by reference slices, which give its scale.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    out = []
    for _ in range(probes):
        slices = [reference.time_slice() for _ in range(3)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=150, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        slices += [reference.time_slice() for _ in range(3)]
        out.append({"wall_s": wall, "scaled_s": wall * reference.scale(slices)})
    return out


# --- statistics -----------------------------------------------------------------


def tail(values: list[float], wanted: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the workload's tail percentile.

    The percentile is fixed per workload so two commits compare the same
    one; it drops to the highest lower one only when fewer than
    TAIL_BEYOND samples would lie beyond it. Nearest-rank definition.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in sorted((p for p in PERCENTILES if p <= wanted), reverse=True):
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= TAIL_BEYOND or pct == PERCENTILES[0]:
            return ordered[rank - 1], pct, n - rank
    raise AssertionError("unreachable")


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\0")
    return h.hexdigest()


def input_digest(workload) -> str:
    return _digest(json.dumps(r.as_json()) for r in workload.pool + workload.warmup)


def environment(seed: int) -> dict:
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
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
    return None


def latency_metrics(series: dict[str, list[float]], tail_pct: float) -> tuple[dict, dict]:
    metrics, tails = {}, {}
    for op, values in series.items():
        if not values:
            continue
        metrics[f"{op}_p50_ms"] = {"value": statistics.median(values) * 1e3, "unit": "ms"}
        value, pct, beyond = tail(values, tail_pct)
        metrics[f"{op}_tail_ms"] = {"value": value * 1e3, "unit": "ms"}
        tails[f"{op}_tail_ms"] = {"percentile": pct, "samples": len(values), "beyond": beyond}
    return metrics, tails


def certificate_metrics(results: list[dict]) -> dict:
    certs = [r for r in results if "witnesses" in r]
    if not certs:
        return {}
    return {
        "cert_witnesses": {"value": statistics.fmean(r["witnesses"] for r in certs),
                           "unit": "count"},
        "cert_bytes": {"value": statistics.fmean(r["output_bytes"] for r in certs),
                       "unit": "bytes"},
    }


def word_share(results: list[dict]) -> float:
    witnesses = sum(r.get("witnesses", 0) for r in results)
    distinct = sum(r.get("distinct_words", 0) for r in results)
    return 1 - distinct / witnesses if witnesses else 0.0


# --- runs -------------------------------------------------------------------------


def closed_loop(runner, workload, seconds: float | None = None,
                count: int | None = None) -> tuple[list[dict], float]:
    """The first `count` requests, or whole cycles until `seconds` have passed.

    A timed run also goes on until its tail percentile has TAIL_BEYOND
    samples beyond it, so a slow machine never changes which percentile the
    tail metric reports. A reference slice runs before every request and
    after the last; each result gets the scale factor of the slices around it.
    """
    pool = workload.pool
    enough = math.ceil(round(TAIL_BEYOND * 100 / (100 - workload.tail_pct), 9))
    results: list[dict] = []
    slices: list[float] = []
    t0 = time.perf_counter()
    while True:
        slices.append(reference.time_slice())
        results.append(runner.run(pool[len(results) % len(pool)]))
        n = len(results)
        if n == count or (count is None and n % workload.cycle == 0 and n >= enough
                          and time.perf_counter() - t0 >= seconds):
            break
    slices.append(reference.time_slice())
    wall = time.perf_counter() - t0
    for result, scale in zip(results, reference.scales(slices)):
        result["scale"] = scale
    return results, wall


def busy_seconds(results: list[dict], kind: str, scaled: bool) -> float:
    """Time spent inside the package, the benchmark's own checks excluded."""
    return sum((r[op] or 0.0) * (r["scale"] if scaled else 1.0)
               for r in results for op in OPS[kind])


def timing_metrics(results: list[dict], kind: str, tail_pct: float,
                   scaled: bool) -> tuple[dict, dict]:
    """Latency and throughput metrics, scaled or as measured."""
    ops = OPS[kind]
    weight = [r["scale"] if scaled else 1.0 for r in results]
    series = {op: [r[op] * w for r, w in zip(results, weight) if r[op] is not None]
              for op in ops}
    series["request"] = [sum(r[op] for op in ops) * w for r, w in zip(results, weight)
                         if all(r[op] is not None for op in ops)]
    metrics, tails = latency_metrics(series, tail_pct)
    busy = busy_seconds(results, kind, scaled)
    metrics["throughput_rps"] = {"value": len(series["request"]) / busy if busy else 0.0,
                                 "unit": "1/s"}
    return metrics, tails


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                  probes: int = SETUP_PROBES) -> dict:
    """Run one workload; return the full record (see the module docstring)."""
    setup = probe_setup(name, seed, smoke, probes - probes // 2)
    t0 = time.perf_counter()
    lib, workload, runner, warm_errors = set_up(name, seed, smoke)
    in_process_setup = time.perf_counter() - t0
    kind = workload.kind
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "input_digest": input_digest(workload),
    }

    if not trace:
        results, wall = closed_loop(runner, workload, seconds=seconds)
        measured = results
        record["window_s"] = wall
    else:
        from layers import layer_metrics
        from tracer import Tracer

        count = min(workload.trace_requests, len(workload.pool))
        measured, _ = closed_loop(runner, workload, count=count)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        runner.prev = None
        try:
            traced, _ = closed_loop(runner, workload, count=count)
        finally:
            tracer.uninstall()
            runner.tracer = None
        base = busy_seconds(measured, kind, True)
        overhead = busy_seconds(traced, kind, True) / base - 1 if base else 0.0
        tags = {r.index: r.tag for r in workload.pool[:count]}
        layer, missing = layer_metrics(tracer, tags, overhead, word_share(traced))
        record.update(layers=layer, missing=missing, spans=len(tracer))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}.spans.tsv.gz"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        results = measured + traced

    setup += probe_setup(name, seed, smoke, probes // 2)
    metrics, tails = timing_metrics(measured, kind, workload.tail_pct, scaled=True)
    raw, _ = timing_metrics(measured, kind, workload.tail_pct, scaled=False)
    metrics["setup_s"] = {"value": statistics.median(p["scaled_s"] for p in setup),
                          "unit": "s"}
    raw["setup_s"] = {"value": statistics.median(p["wall_s"] for p in setup), "unit": "s"}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + len(warm_errors)
    metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    metrics["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"}
    metrics.update(certificate_metrics(results))
    record.update({
        "requests": len(results),
        "attempted": attempted,
        "failed": failed,
        "errors": warm_errors + runner.errors,
        "metrics": metrics,
        "tails": tails,
        "unscaled": raw,
        "setup": {"probes": setup, "in_process_s": in_process_setup},
        "scale": {"median": statistics.median(r["scale"] for r in measured),
                  "min": min(r["scale"] for r in measured),
                  "max": max(r["scale"] for r in measured)},
        "output_digest": _digest(runner.outputs),
        "output_digest_requests": len(runner.outputs),
    })
    return record


def result_line(record: dict) -> dict:
    """The driver-facing summary: end-to-end metrics untraced, layers traced."""
    source = record["layers"] if record["trace"] else record["metrics"]
    names = source if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: source[k] for k in names if k in source},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, _, _, warm_errors = set_up(args.workload, args.seed, args.smoke)
        return 1 if warm_errors else 0
    load_package()
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in record["errors"]:
        print(f"error: {line}")
    shown = {k: round(v["value"], 6) for k, v in record["metrics"].items()}
    print(f"{args.workload} seed={args.seed} requests={record['requests']} record={path.relative_to(ROOT)}")
    print(json.dumps({"metrics": shown, "tails": record["tails"]}))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
