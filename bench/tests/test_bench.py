"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

Smoke runs use tiny inputs (the `smoke` workload sizes) and a single
set-up probe, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = {"setup_s": "s", "throughput_rps": "1/s", "fail_frac": "ratio",
          "peak_rss_mib": "MiB", "request_p50_ms": "ms", "request_tail_ms": "ms"}
CERT = {"synth_p50_ms": "ms", "synth_tail_ms": "ms", "verify_p50_ms": "ms",
        "verify_tail_ms": "ms", "reject_p50_ms": "ms", "reject_tail_ms": "ms",
        "cert_witnesses": "count", "cert_bytes": "bytes"}
CALC = {"calc_p50_ms": "ms", "calc_tail_ms": "ms"}
EXPECTED = {"corpus": {**COMMON, **CERT}, "x0_ladder": {**COMMON, **CERT},
            "long_words": {**COMMON, **CALC}}


@pytest.fixture(scope="module")
def lib():
    return run.load_package()


def _smoke(name: str, trace: bool) -> dict:
    return run.run_benchmark(name, seed=3, seconds=0.01, trace=trace, smoke=True, probes=1)


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(name):
    record = _smoke(name, trace=False)
    assert record["failed"] == 0, record["errors"]
    metrics = record["metrics"]
    for metric, unit in EXPECTED[name].items():
        assert metrics[metric]["unit"] == unit, metric
        assert isinstance(metrics[metric]["value"], float)
    assert metrics["fail_frac"]["value"] == 0
    for key, tail in record["tails"].items():
        assert key in metrics and tail["samples"] > 0
    env = record["environment"]
    assert env["nproc"] >= 1 and env["python"] and env["cpu"] and env["seed"] == 3
    line = run.result_line(record)
    assert line["correct"] and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer(name, lib):
    record = _smoke(name, trace=True)
    assert record["failed"] == 0, record["errors"]
    assert record["missing"] == []
    line = run.result_line(record)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == layers.metric_units()
    values = {k: v["value"] for k, v in line["metrics"].items()}
    if name == "long_words":
        assert values["synthesis.synthesize.s"] == 0 and values["certify.witnesses.s"] == 0
    else:
        assert values["synthesis.certify_calls"] >= 2
    assert values["element.compose.calls"] > 0
    # the wrappers are gone once the run ends
    assert not hasattr(lib.compose, "__wrapped__")
    assert not hasattr(lib.certify.SuffixCongruence.same, "__wrapped__")


def test_traced_spans_nest():
    record = _smoke("corpus", trace=True)
    with gzip.open(ROOT / record["spans_file"], "rt") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    spans = [(int(p), r, int(s), int(e)) for _, p, _, r, s, e in rows]
    assert spans
    for parent, request, start, end in spans:
        assert start <= end
        if parent >= 0:
            p_parent, p_request, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end
            assert p_request == request


def test_ladder_certify_calls_are_exact():
    # synthesize certifies twice for (k, k) and once more for (-k, k)
    record = _smoke("x0_ladder", trace=True)
    plus = sum(1 for c in workloads.LADDER.items() for _ in range(c[1]) if c[0][1] > 0)
    total = sum(workloads.LADDER.values())
    want = (2 * plus + 3 * (total - plus)) / total
    assert record["layers"]["synthesis.certify_calls"]["value"] == pytest.approx(want)


def test_missing_layer_is_reported_not_fatal(monkeypatch, lib):
    monkeypatch.setattr(tracer_mod, "LAYERS", tuple(x for x in tracer_mod.LAYERS if x != "lattice"))
    workload = workloads.make_workload("corpus", 1, smoke=True)
    tracer = tracer_mod.Tracer()
    runner = workloads.Runner(lib, workload, tracer)
    tracer.install()
    try:
        rec = runner.run(workload.pool[0])
    finally:
        tracer.uninstall()
    assert rec["failed"] == 0
    metrics, missing = layers.layer_metrics(tracer, {0: "corpus"}, 0.0, 0.0)
    assert missing == ["lattice.self_s"]
    assert "lattice.self_s" not in metrics and metrics["element.compose.calls"]["value"] > 0


def test_wrong_answers_are_counted_and_the_run_goes_on(monkeypatch, lib):
    calc = workloads.make_workload("long_words", 1, smoke=True)
    runner = workloads.Runner(lib, calc)
    evaluate = lib.evaluate
    # x0 moves every point inside (0, 1), so each image comes out wrong
    monkeypatch.setattr(lib, "evaluate", lambda e, t: evaluate(lib.X0, evaluate(e, t)))
    recs = [runner.run(req) for req in calc.pool[:3]]
    assert [r["failed"] for r in recs] == [1, 1, 1]
    assert all(r["calc"] is not None for r in recs)
    assert "letter by letter" in runner.errors[0]

    cert = workloads.make_workload("corpus", 1, smoke=True)
    runner = workloads.Runner(lib, cert)
    passing = lib.certify_normal_generation(lib.synthesize(lib.X0, 1, 1).certificate)
    monkeypatch.setattr(lib, "certify_normal_generation", lambda cert, bound=None: passing)
    monkeypatch.setattr(lib, "certificate_from_json", lambda text: None)
    recs = [runner.run(req) for req in cert.pool[:4]]
    # every tamper "passes" and the decoded certificate never matches
    assert all(r["failed"] == 2 for r in recs)

    def broken(f, c, d):
        raise RuntimeError("boom")

    monkeypatch.setattr(lib, "synthesize", broken)
    rec = runner.run(cert.pool[0])
    assert rec["failed"] == rec["attempted"] == 3


def test_same_seed_same_inputs():
    def digest(seed):
        return run.input_digest(workloads.make_workload("corpus", seed, smoke=True))

    assert digest(5) == digest(5) != digest(6)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100)], 90.0) == (89.0, 90.0, 10)
    assert run.tail([float(x) for x in range(30)], 90.0) == (14.0, 50.0, 15)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "not found" in proc.stderr
