"""The timps benchmark: fixed sequences of ``timps`` CLI invocations, each in a
fresh process, one at a time (a closed loop with one client).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is ``src/timps`` of
that checkout. A job is one pass over the workload's invocations. Jobs repeat
until the next one would end after ``--seconds``. Every invocation's exit
code, ``pass`` flag, expected Chern values and byte-identical artifacts are
checked. A fixed reference loop runs in a fresh process between timed
processes; the times reported are wall times scaled by the host speed it
measured over the run (see ``REF_CODE``). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics. The last line of standard output is the
result as one JSON object; a copy with the machine record goes to
``.bench_out/results/``. The exit code is 0 when
every check passed, 1 when one failed, 2 when the checkout holds no
``src/timps``.

See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import trace_shim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SHIM = Path(__file__).resolve().parent / "trace_shim.py"

PUMP_SPEC = {"family": "pump", "params": {"w4": 0.7}}
# No run may take longer than this, whatever --seconds says.
RUN_LIMIT_S = 170.0
# The reference loop: a fixed pure-numpy program that prints how long its
# loop took, about 0.3 s. Small eigvals calls stand for call overhead (the
# per-vertex and scalar paths of timps), complex 512x512 products for dense
# BLAS on its default threads (the oracle).
#
# On a shared VM the host's speed drifts by up to 40% over minutes, and the
# wall time of a timps process drifts with it. The run's times are scaled by
# (REF_NOMINAL_S / median time of this loop) ** HOST_EXPONENT, so most of
# that drift cancels; a change to timps moves the processes' times but not
# the loop's. The loop runs in a fresh process after a timed process whenever
# REF_EVERY_S have passed since it last ran, so its samples spread evenly
# over the run. Each sample is a fresh process, like the timed processes, so
# that no single process's own speed biases the whole run.
REF_CODE = """\
import time
import numpy as np
rng = np.random.default_rng(0)
small = rng.normal(size=(4, 4))
big = (rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))) / 512
np.linalg.eigvals(small)  # warm-up: LAPACK set-up, BLAS threads
big @ big
t0 = time.perf_counter()
for _ in range(8000):
    np.linalg.eigvals(small + small.T)
for _ in range(8):
    big @ big
print(time.perf_counter() - t0)
"""
# About the loop's time on the machine the benchmark was built on (a 2-CPU
# Xeon VM) at its usual speed.
REF_NOMINAL_S = 0.32
REF_EVERY_S = 2.0
# The loop's time rises about twice as much as the workloads' when the host
# slows down: from the first three to the last three runs of one set of ten
# on the build machine, the loop's median rose 20% while chern-sphere jobs
# took 12% longer and homotopy-sweep jobs 9%. Scaling by the full ratio
# then turns a slowdown into a speed-up.
# Over two sets of ten runs per workload, the exponents 1/3 and 1/2 gave the
# lowest spreads of job_s (at most 0.084 and 0.083, against 0.112 for 0 and
# 0.118 for 1), and 1/2 the closest medians between the sets (within 4%,
# against 14% for both 0 and 1).
HOST_EXPONENT = 0.5


@dataclass(frozen=True)
class Invocation:
    """One ``timps`` command: its arguments, the JSON summary entries it must
    produce, and the wrapped functions it calls directly, which a traced run
    must see called. In the arguments, ``{seed}`` is the run's seed S,
    ``{seeds[i]}`` is ``oracle_seed(S, i)`` and ``{spec}`` the path of the
    pump family spec."""

    argv: tuple
    expect: dict = field(default_factory=dict)
    calls: tuple = ()


# oracle-check draws the size of each trial's window from its seed, and the
# 1024x1024 windows (d=4, n=5) take about 80% of its time. Their number
# ranges from 3 to 18 over seeds 0-299: one seed's cost had an sd of 17% of
# the mean over 16 seeds, and with four consecutive seeds per job, job_s
# still spread 0.19 (quartile distance over median) over five runs.
# So a job runs oracle-check at ORACLE_SEEDS seeds taken, by the run's seed,
# from ORACLE_SEED_POOL: the seeds that draw exactly ORACLE_HEAVY such
# windows at the commit that added the benchmark (oracle_seeds.py lists them).
# Runs whose seeds differ modulo len(ORACLE_SEED_POOL) // ORACLE_SEEDS get
# different cores, observables and gauge moves, but the same dense work.
ORACLE_SEEDS = 4
ORACLE_HEAVY = 10
ORACLE_SEED_POOL = (
    0, 2, 19, 23, 25, 30, 38, 39, 55, 56, 73, 75, 82, 84, 89, 90, 105,
    107, 122, 129, 136, 138, 143, 147, 154, 173, 181, 189, 198, 199, 207,
    213, 215, 221, 223, 229, 234, 249, 255, 257, 260, 262, 269, 272, 276,
    283, 298, 299,
)


def oracle_seed(seed: int, i: int) -> int:
    """The ``i``-th oracle-check seed of a run with seed ``seed``."""
    return ORACLE_SEED_POOL[(ORACLE_SEEDS * seed + i) % len(ORACLE_SEED_POOL)]


_MESH_CALLS = ("cli.run_experiment", "families.make_sphere_mesh",
               "invariants.curvature_report", "invariants.link_field")

WORKLOADS = {
    "chern-sphere": (
        Invocation(("chern", "--family", "psi2", "--mesh", "128x128"),
                   {"chern": 1}, _MESH_CALLS),
        Invocation(("chern", "--family", "@{spec}", "--mesh", "128x128"),
                   {"chern": 0}, _MESH_CALLS),
        Invocation(("pump-boundary", "--seed", "{seed}"),
                   {"chern": {"16x16": 1, "32x32": 1}},
                   _MESH_CALLS + ("families.pump_north", "families.pump_south",
                                  "families.pump_lift",
                                  "tensors.canonical_decompose")),
    ),
    "homotopy-sweep": (
        Invocation(("retract-sweep", "--seed", "{seed}", "--count", "400"),
                   calls=("cli.run_experiment",
                          "sampling.random_split_spectrum_tensor",
                          "sampling.random_gauge_move", "tensors.apply_gauge",
                          "homotopy.retract", "tensors.canonical_decompose",
                          "tensors.gauge_equivalent")),
        Invocation(("contract-sweep", "--seed", "{seed}", "--count", "200"),
                   calls=("cli.run_experiment", "sampling.random_tensor_in_e",
                          "homotopy.contraction_path",
                          "tensors.canonical_decompose")),
        Invocation(("gamma-check",),
                   calls=("cli.run_experiment", "homotopy.isometry_path_block")),
    ),
    "oracle-window": tuple(
        Invocation(("oracle-check", "--seed", f"{{seeds[{i}]}}"),
                   calls=("cli.run_experiment", "sampling.random_core",
                          "transfer.fixed_point", "sampling.random_observable",
                          "transfer.expectation",
                          "transfer.window_density_matrix",
                          "sampling.random_tensor_in_e",
                          "sampling.random_gauge_move", "tensors.apply_gauge",
                          "tensors.canonical_decompose"))
        for i in range(ORACLE_SEEDS)
    ) + (
        Invocation(("aklt-sweep",),
                   calls=("cli.run_experiment", "transfer.transfer_spectrum",
                          "transfer.fixed_point", "transfer.correlation_length")),
    ),
}

# --quick appends these (argparse keeps the last value) so that the
# benchmark's own tests run every workload at tiny sizes.
QUICK_ARGS = {
    "chern": ("--mesh", "16x16"),
    "pump-boundary": ("--samples", "8", "--overlap-samples", "8",
                      "--annulus-samples", "8"),
    "retract-sweep": ("--count", "4"),
    "contract-sweep": ("--count", "4"),
    "gamma-check": ("--block", "8", "--t-steps", "3"),
    "oracle-check": ("--trials", "8", "--gauge-trials", "4", "--window-max", "3"),
    "aklt-sweep": ("--g-step", "0.3"),
}

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}


@dataclass
class InvocationResult:
    wall_s: float
    maxrss_mb: float
    digests: dict
    artifact_bytes: int
    trace: dict | None = None
    error: str | None = None


@dataclass
class Job:
    traced: bool
    results: list
    span_s: float  # from the first spawn to the reference run after the last exit

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


class Runner:
    """Spawns the invocations of one run and keeps its deadline."""

    def __init__(self, run_dir: Path, seed: int, quick: bool):
        self.run_dir = run_dir
        self.seed = seed
        self.quick = quick
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spec_path = run_dir / "pump_w4_0.7.json"
        self.spec_path.write_text(json.dumps(PUMP_SPEC), encoding="utf-8")
        self.refs = []
        self.last_ref = -REF_EVERY_S

    def sample_host(self) -> None:
        """Run the reference loop (``REF_CODE``) and keep its time, if
        ``REF_EVERY_S`` have passed since it last ran."""
        if time.perf_counter() - self.last_ref < REF_EVERY_S:
            return
        self.last_ref = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", REF_CODE], env=self.env,
                              capture_output=True, text=True, check=True,
                              timeout=max(self.remaining_s(), 1.0))
        self.refs.append(float(proc.stdout))

    def remaining_s(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, cmd: list, log: Path):
        """Run ``cmd`` to completion; returns (exit code, wall s, maxrss MB).

        ``os.wait4`` gives the child's own peak RSS; a timer kills the child
        if the run limit would be passed."""
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.remaining_s(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def argv(self, inv: Invocation) -> list:
        seeds = [oracle_seed(self.seed, i) for i in range(ORACLE_SEEDS)]
        args = [a.format(seed=self.seed, seeds=seeds, spec=self.spec_path)
                for a in inv.argv]
        if self.quick:
            args += QUICK_ARGS[inv.argv[0]]
        return args

    def run_job(self, workload: str, job_id: int, traced: bool) -> Job:
        job_dir = self.run_dir / f"job{job_id}"
        job_dir.mkdir()
        raw = []
        t0 = time.perf_counter()
        for i, inv in enumerate(WORKLOADS[workload]):
            out = job_dir / f"{i}-{inv.argv[0]}"
            args = self.argv(inv) + ["--out", str(out)]
            span_file = job_dir / f"{i}.spans.json"
            if traced:
                cmd = [sys.executable, str(SHIM), "--spans", str(span_file),
                       "--job", str(job_id), "--", *args]
            else:
                cmd = [sys.executable, "-m", "timps.cli", *args]
            log = job_dir / f"{i}.log"
            raw.append((inv, out, span_file if traced else None, log,
                        *self.spawn(cmd, log)))
            self.sample_host()
        span = time.perf_counter() - t0
        results = [self.check(*r) for r in raw]
        return Job(traced, results, span)

    @staticmethod
    def check(inv: Invocation, out: Path, span_file: Path | None, log: Path,
              code: int, wall: float, rss: float) -> InvocationResult:
        """Output checks that need only this invocation."""
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files}
        res = InvocationResult(wall, rss, digests, sum(p.stat().st_size for p in files))
        name = inv.argv[0]
        if code != 0:
            res.error = f"{name}: exit code {code}"
            if code == trace_shim.STALE_EXIT and span_file is not None:
                res.error += " (stale trace: a listed function is missing)"
            res.error += "; output ends: " + log.read_text(errors="replace")[-600:]
            return res
        try:
            doc = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
            if span_file is not None:
                res.trace = json.loads(span_file.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            res.error = f"{name}: unreadable output ({exc})"
            return res
        if doc.get("pass") is not True:
            res.error = f"{name}: pass is {doc.get('pass')!r}"
        for key, want in inv.expect.items():
            got = doc.get("summary", {}).get(key)
            if got != want:
                res.error = f"{name}: summary {key} is {got!r}, expected {want!r}"
        if res.trace is not None:
            counts = spans.job_metrics([res.trace], 0)
            missing = [c for c in inv.calls if counts[f"{c}.calls"] == 0]
            if missing:
                res.error = f"{name}: traced run saw no call of {missing}"
        return res


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(p for p in libs if p.startswith("/")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "timps").rglob("*.py")):
        src_hash.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def host_factor(refs: list) -> float:
    """Scale from the run's wall times toward seconds of a host that runs
    the reference loop in ``REF_NOMINAL_S``."""
    return (REF_NOMINAL_S / statistics.median(refs)) ** HOST_EXPONENT


def setup_samples(runner: Runner, count: int) -> list:
    """Wall time of a fresh process that imports timps, ``count`` times,
    after one untimed import that also checks which timps is imported."""
    probe = subprocess.run([sys.executable, "-c", "import timps; print(timps.__file__)"],
                           env=runner.env, capture_output=True, text=True, check=False)
    where = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        raise RuntimeError(f"import timps failed or resolved outside {SRC}: "
                           f"{probe.stdout}{probe.stderr}")
    cmd = [sys.executable, "-c", "import timps"]
    log = runner.run_dir / "setup.log"
    samples = []
    for _ in range(count):
        samples.append(runner.spawn(cmd, log)[1])
        runner.sample_host()
    return samples


def run_jobs(runner: Runner, workload: str, seconds: float, trace: bool) -> list:
    """Jobs until the next would end after ``seconds``; with ``trace`` they
    alternate untraced and traced, and at least one of each runs."""
    jobs: list = []
    t0 = time.perf_counter()
    for job_id in itertools.count():
        traced = trace and job_id % 2 == 1
        same = [j.span_s for j in jobs if j.traced == traced]
        elapsed = time.perf_counter() - t0
        if same and (elapsed + max(same) > seconds
                     or runner.remaining_s() < 2 * max(same)):
            break
        jobs.append(runner.run_job(workload, job_id, traced))
    return jobs


def compare_artifacts(jobs: list) -> None:
    """Every job's artifacts must be byte-identical to the first untraced
    job's (same seed); traced jobs thereby show the wrappers change nothing."""
    reference = jobs[0].results
    for job in jobs[1:]:
        for res, ref in zip(job.results, reference):
            if res.error is None and res.digests != ref.digests:
                kind = "traced" if job.traced else "untraced"
                res.error = f"{kind} artifacts differ from the first job's"


def end_to_end_metrics(setup: list, jobs: list, factor: float) -> dict:
    results = [r for j in jobs for r in j.results]
    failed = sum(r.error is not None for r in results)
    return {
        "setup_s": statistics.median(setup) * factor,
        "job_s": statistics.median(j.wall_s for j in jobs) * factor,
        "peak_rss_mb": statistics.median(max(r.maxrss_mb for r in j.results)
                                         for j in jobs),
        "pass_frac": 1.0 - failed / len(results),
    }


def per_layer_metrics(jobs: list) -> dict:
    traced = [j for j in jobs if j.traced]
    plain = [j for j in jobs if not j.traced]
    per_job = [spans.job_metrics([r.trace for r in j.results if r.trace is not None],
                                 sum(r.artifact_bytes for r in j.results))
               for j in traced]
    out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    out[spans.OVERHEAD] = (statistics.median(j.wall_s for j in traced)
                           / statistics.median(j.wall_s for j in plain) - 1.0)
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="timps benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes and few set-up samples (for the tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "timps" / "cli.py").is_file():
        print(f"no timps source under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(run_dir, args.seed, args.quick)
        machine = machine_record()
        setup = setup_samples(runner, 2 if args.quick else 9)
        jobs = run_jobs(runner, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    compare_artifacts(jobs)
    results = [r for j in jobs for r in j.results]
    errors = [r.error for r in results if r.error]
    if args.trace:
        values = per_layer_metrics(jobs)
        units = spans.per_layer_units()
    else:
        values = end_to_end_metrics(setup, jobs, host_factor(runner.refs))
        units = END_TO_END_UNITS
    result = {
        "correct": not errors,
        "attempted": len(results),
        "failed": len(errors),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "machine": machine,
        "host.ref_s": runner.refs,
        "host_factor": host_factor(runner.refs),
        "setup_wall_s": setup,
        "jobs": [{"traced": j.traced, "wall_s": j.wall_s,
                  "invocation_wall_s": [r.wall_s for r in j.results],
                  "invocation_maxrss_mb": [r.maxrss_mb for r in j.results]}
                 for j in jobs],
        "errors": errors,
        "result": result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "machine": machine, "jobs": len(jobs),
        "host.ref_s": {"min": min(runner.refs), "median": statistics.median(runner.refs),
                       "max": max(runner.refs)},
        "host_factor": record["host_factor"], "job_wall_s": [j.wall_s for j in jobs],
        "setup_wall_s_median": statistics.median(setup)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
