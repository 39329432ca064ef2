"""Tests of the benchmark's own logic. Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle_seeds
import run
import spans
import trace_shim

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

R, TE, OE = spans.RETURNED, spans.TIMPS_ERROR, spans.OTHER_ERROR


def _name(span: str) -> int:
    return spans.SPAN_NAMES.index(span)


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 100) has children 1 [10, 40) and 2 [50, 90); 2 has child 3 [60, 70).
    rows = [
        [_name("cli.run_experiment"), 0, 100, -1, R],
        [_name("tensors.canonical_decompose"), 10, 40, 0, R],
        [_name("invariants.curvature_report"), 50, 90, 0, R],
        [_name("invariants.link_field"), 60, 70, 2, R],
    ]
    assert spans.self_times_ns(rows) == [100 - 30 - 40, 30, 40 - 10, 10]


def test_job_metrics_sum_invocations_per_layer():
    a = {"names": list(spans.SPAN_NAMES), "window_bytes": 1_000_000, "spans": [
        [_name("cli.run_experiment"), 0, 100, -1, R],
        [_name("tensors.canonical_decompose"), 10, 40, 0, TE],
    ]}
    b = {"names": list(spans.SPAN_NAMES), "window_bytes": 500_000, "spans": [
        [_name("tensors.canonical_decompose"), 0, 20, -1, R],
    ]}
    m = spans.job_metrics([a, b], artifact_bytes=123)
    assert m["tensors.canonical_decompose.calls"] == 2
    assert m["tensors.canonical_decompose.errors"] == 1
    assert m["tensors.canonical_decompose.self_s"] == pytest.approx(50e-9)
    assert m["cli.self_s"] == pytest.approx(70e-9)
    assert m["tensors.self_s"] == pytest.approx(50e-9)
    assert m["invariants.link_field.calls"] == 0
    assert m[spans.WINDOW_MBYTES] == pytest.approx(1.5)
    assert m[spans.ARTIFACT_BYTES] == 123
    assert set(m) | {spans.OVERHEAD} == set(spans.per_layer_units())


def test_accept_ratio_counts_attempts_under_the_draw_only():
    names = list(spans.SPAN_NAMES)
    core, norm = _name("sampling.random_core"), _name("tensors.right_normalize")
    rows = [
        [core, 0, 100, -1, R],     # 3 attempts, 1 draw
        [norm, 1, 2, 0, TE],
        [norm, 3, 4, 0, R],
        [norm, 5, 6, 0, R],
        [norm, 200, 201, -1, R],   # not under a draw: not an attempt
        [core, 300, 400, -1, OE],  # gave up: an attempt, no draw
        [norm, 301, 302, 5, TE],
    ]
    assert spans.accept_ratio(rows, names, "sampling.random_core",
                              "tensors.right_normalize") == (1, 4)
    m = spans.job_metrics([{"names": names, "spans": rows, "window_bytes": 0}], 0)
    assert m["sampling.core_accept_ratio"] == pytest.approx(0.25)
    assert m["sampling.split_accept_ratio"] == 0.0


def test_recorder_records_parents_and_error_status():
    from timps.errors import NotInEError, TimpsError

    rec = trace_shim.Recorder(TimpsError)

    def inner(x):
        if x < 0:
            raise NotInEError("negative")
        return x

    inner_w = rec.wrap(1, inner)

    def outer(x):
        try:
            inner_w(-1)
        except TimpsError:
            pass
        return inner_w(x)

    outer_w = rec.wrap(0, outer)
    assert outer_w(5) == 5
    with pytest.raises(ValueError):
        rec.wrap(2, int)("x")
    assert [(r[0], r[3], r[4]) for r in rec.rows] == [
        (0, -1, R), (1, 0, TE), (1, 0, R), (2, -1, OE)]
    assert all(r[1] <= r[2] for r in rec.rows)


def test_stale_name_fails_before_wrapping(monkeypatch):
    from timps.errors import TimpsError

    monkeypatch.setattr(trace_shim, "SPAN_NAMES", ("tensors.no_such_function",))
    with pytest.raises(trace_shim.StaleTraceError, match="no_such_function"):
        trace_shim.install(trace_shim.Recorder(TimpsError))


def test_traced_invocation_without_required_calls_fails(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "gamma-check.json").write_text(json.dumps({"pass": True, "summary": {}}))
    span_file = tmp_path / "spans.json"
    span_file.write_text(json.dumps({"names": list(spans.SPAN_NAMES), "spans": [
        [_name("cli.run_experiment"), 0, 10, -1, R]], "window_bytes": 0}))
    inv = run.Invocation(("gamma-check",), calls=("cli.run_experiment",
                                                  "homotopy.isometry_path_block"))
    log = tmp_path / "log"
    res = run.Runner.check(inv, out, span_file, log, 0, 1.0, 1.0)
    assert "homotopy.isometry_path_block" in res.error
    assert run.Runner.check(inv, out, None, log, 0, 1.0, 1.0).error is None


def test_times_are_scaled_by_the_median_reference_time():
    factor = run.host_factor([0.1, 0.4, 0.3, 0.5, 0.2])
    assert factor == pytest.approx((run.REF_NOMINAL_S / 0.3) ** run.HOST_EXPONENT)

    def job(walls, rss):
        return run.Job(False, [run.InvocationResult(w, rss, {}, 0) for w in walls], 0.0)

    jobs = [job([1.0, 2.0], 50.0), job([1.0, 4.0], 60.0), job([2.0, 2.0], 40.0)]
    m = run.end_to_end_metrics([0.2, 0.3, 0.25], jobs, factor)
    assert m["job_s"] == pytest.approx(4.0 * factor)
    assert m["setup_s"] == pytest.approx(0.25 * factor)
    assert m["peak_rss_mb"] == 50.0
    assert m["pass_frac"] == 1.0


def test_oracle_seeds_are_distinct_pool_entries():
    for seed in (0, 1, 7, 10**6):
        seeds = [run.oracle_seed(seed, i) for i in range(run.ORACLE_SEEDS)]
        assert len(set(seeds)) == run.ORACLE_SEEDS
        assert set(seeds) <= set(run.ORACLE_SEED_POOL)


def test_pool_seeds_draw_the_same_number_of_large_windows(tmp_path):
    for seed in run.ORACLE_SEED_POOL[:2]:
        assert oracle_seeds.heavy_windows(seed, tmp_path / str(seed)) == run.ORACLE_HEAVY


def _quick(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == spans.per_layer_units()


@pytest.mark.parametrize("workload,trace", [
    ("chern-sphere", 0), ("chern-sphere", 1),
    ("homotopy-sweep", 1), ("oracle-window", 1)])
def test_quick_run_emits_every_declared_metric(workload, trace):
    proc = _quick(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    per_job = len(run.WORKLOADS[workload])
    assert result["attempted"] % per_job == 0
    assert result["attempted"] >= (2 if trace else 1) * per_job
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _quick("oracle-window", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
