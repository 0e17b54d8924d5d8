"""xdicheck benchmark: seeded CLI workloads, timed end to end, traced per layer.

    python3 bench/run.py --workload fg_ring --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1              # every workload, both modes
    python3 bench/run.py --record              # re-record expected.json

The load generator is a closed loop with one client: it runs one CLI job
at a time, each in a child forked from this process after xdicheck was
imported and before any of its caches were filled, so every job starts
as cold as a fresh ``xdicheck`` process would, without paying the import
again. The child runs ``cli.main(argv)`` with stdout captured; its wall
time is the job time, its peak RSS comes from ``wait4``.

With ``--trace 0`` the job list runs in passes until ``--seconds`` have
gone by, and the end-to-end metrics are reported. With ``--trace 1`` each
job runs untraced and then traced, and the per-layer metrics come from
the traced runs. Every job's output is checked in both modes. The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

JOB_LIMIT_S = 60.0  # per job; the slowest job takes about 1.5 s
MIN_PASSES = 4  # per run, so that every job has several samples
SETUP_RUNS = 9  # fresh interpreters per run, at least
SETUP_PER_PASS = 2
CALIBRATION_STATES = 6000
# The calibration task's time at the reference speed. Reported timings are
# scaled to that speed. It is about the task's time between jobs on the
# 2-core VM the benchmark was built on.
CALIBRATION_S = 0.024
THREADS_VAR = "XDI_CHECK_THREADS"

SETUP_CODE = """
import time
start = time.perf_counter()
import xdicheck.cli
imported = time.perf_counter()
xdicheck.cli.library.builtin_library()
print(imported - start, time.perf_counter() - start)
"""


# --- Running one job ----------------------------------------------------------


def _child(cli, job: workloads.Job, trace_file: Path | None, job_id: int) -> dict:
    tracer = Tracer.install() if trace_file else None
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(job.argv))
        seconds = time.perf_counter() - start
    result = {"code": code, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if job.smt:
        result["smt"] = Path(job.smt).read_text(encoding="utf-8")
    if tracer:
        result["layers"] = tracer.summary()
        with open(trace_file, "a", encoding="utf-8") as handle:
            tracer.write(handle, job_id)
    return result


def run_job(cli, job: workloads.Job, trace_file: Path | None = None, job_id: int = 0) -> dict:
    """Run one job in a forked child; returns its result plus peak RSS."""

    jobdir = WORK / "job"
    shutil.rmtree(jobdir, ignore_errors=True)
    for name, text in job.files:
        path = jobdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def work() -> dict:
        os.chdir(jobdir)
        return _child(cli, job, trace_file, job_id)

    return _forked(work)


def _forked(work) -> dict:
    """Run work() in a forked child; returns the dict it returned plus the
    child's peak RSS, or an error."""

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child must never return into the benchmark loop.
        try:
            os.close(read_end)
            try:
                payload = work()
            except BaseException:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(json.dumps(payload).encode("utf-8"))
        finally:
            os._exit(0)
    os.close(write_end)
    chunks, deadline, killed = [], time.monotonic() + JOB_LIMIT_S, False
    with os.fdopen(read_end, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            chunk = os.read(pipe.fileno(), 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if killed:
        result = {"error": f"killed after {JOB_LIMIT_S:.0f} s"}
    elif status != 0 or not chunks:
        result = {"error": f"child ended with status {status}"}
    else:
        result = json.loads(b"".join(chunks))
    result["rss_mb"] = usage.ru_maxrss / 1024
    return result


def _calibration_work() -> dict:
    """A fixed pure-Python task that uses no xdicheck code: a breadth-first
    search over a graph of tuple states, with the dict, set, tuple and
    string work the checker does. Its time tells how fast the machine runs
    Python at the moment."""

    start = time.perf_counter()
    size = CALIBRATION_STATES

    def state(i):
        return (i, f"s{i % 7}")

    edges = {state(i): [state((i + 1) % size), state((5 * i + 3) % size)] for i in range(size)}
    seen, frontier = {state(0)}, [state(0)]
    while frontier:
        following = []
        for node in frontier:
            for target in edges[node]:
                if target not in seen:
                    seen.add(target)
                    following.append(target)
        frontier = following
    names = sorted(f"{label}_{index}" for index, label in seen)
    return {"seconds": time.perf_counter() - start, "states": len(names)}


def calibrate() -> float:
    """Time of the calibration task in a forked child, as a job runs."""

    result = _forked(_calibration_work)
    if result.get("states") != CALIBRATION_STATES:
        raise RuntimeError(f"calibration task failed: {result.get('error', result)}")
    return result["seconds"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(job: workloads.Job, result: dict, recorded: dict | None) -> str | None:
    """Why the job failed, or None when its output is right."""

    if "error" in result:
        return result["error"]
    if result["code"] != job.code:
        return f"exit code {result['code']}, expected {job.code}: {result['stderr'].strip()}"
    lines = result["stdout"].splitlines()
    missing = [line for line in job.lines if line not in lines]
    if missing:
        return f"missing verdict line {missing[0]!r}"
    if job.stdout is not None and result["stdout"] != job.stdout:
        return "stdout differs from the answer known by construction"
    if recorded is None:
        return "no recorded output for this job"
    if _digest(result["stdout"]) != recorded["stdout"]:
        return "stdout differs from the recorded output"
    if job.smt and _digest(result["smt"]) != recorded.get("smt"):
        return "SMT-LIB text differs from the recorded output"
    return None


# --- Measuring ------------------------------------------------------------------


def measure_setup(count: int) -> list[tuple[float, float]]:
    """(import time, import plus library time) in each of `count` fresh
    interpreters."""

    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(THREADS_VAR, None)
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=WORK,
            capture_output=True, text=True, check=True, timeout=60,
        )
        imported, total = map(float, done.stdout.split())
        samples.append((imported, total))
    return samples


def run_checked(cli, job, recorded, failures, trace_file=None, job_id=0) -> dict:
    result = run_job(cli, job, trace_file, job_id)
    reason = check(job, result, recorded.get(job.key))
    if reason:
        failures.append(f"{job.key}: {reason}")
    return result


def run_pass(cli, jobs, recorded, failures, stop_at):
    """Run the job list once, each job right after a calibration task.
    Returns the job results, the wall time of the jobs alone and the
    calibration times."""

    results, calibrations, wall = [], [], 0.0
    for job in jobs:
        if time.perf_counter() > stop_at:
            break
        calibrations.append(calibrate())
        start = time.perf_counter()
        results.append(run_checked(cli, job, recorded, failures))
        wall += time.perf_counter() - start
    return results, wall, calibrations


def _slope(points):
    """Least-squares slope of log time against log size; 0.0 when fewer
    than two sizes ran. Times of jobs whose sizes differ by under 5 % are
    summed as one size: the two ring polarities differ by one state."""

    groups: list[list[float]] = []
    for size, seconds in sorted(point for point in points if min(point) > 0):
        if groups and size <= groups[-1][0] * 1.05:
            groups[-1][1] += seconds
        else:
            groups.append([size, seconds])
    if len(groups) < 2:
        return 0.0
    xs = [math.log(size) for size, _ in groups]
    ys = [math.log(seconds) for _, seconds in groups]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _trimmed_mean(samples: list[float]) -> float:
    """Mean without the fastest and the slowest sample, once there are five."""

    ordered = sorted(samples)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 5 else ordered)


def end_to_end(cli, jobs, recorded, seconds, failures):
    setups, per_job, rss, calibrations, done, wall = [], [[] for _ in jobs], [], [], 0, 0.0
    start = time.perf_counter()
    hard_stop = start + max(2 * seconds, seconds + 60)
    while time.perf_counter() - start < seconds or done < MIN_PASSES * len(jobs):
        # Load on a shared machine drifts over seconds, so the set-up
        # samples are spread over the run instead of taken in one burst.
        setups.extend(measure_setup(SETUP_PER_PASS))
        results, elapsed, calibrated = run_pass(cli, jobs, recorded, failures, hard_stop)
        done += len(results)
        wall += elapsed
        calibrations.extend(calibrated)
        for samples, result in zip(per_job, results):
            samples.append(result.get("seconds", JOB_LIMIT_S))
        rss.extend(result["rss_mb"] for result in results)
        if time.perf_counter() > hard_stop:
            break
    setups.extend(measure_setup(SETUP_RUNS - len(setups)))
    # Percentiles over the job list of each job's typical time. Pooling every
    # sample instead puts p50 and p75 at a boundary between two job sizes
    # that moves with the number of passes, which made them jump by 30 %.
    # A job's typical time is its mean over the passes without its fastest
    # and slowest sample. The machine's speed drifts during a run, and a
    # median of a job's few samples lands in a fast or a slow stretch,
    # while a mean averages over the whole run as jobs_per_s does.
    typical = [_trimmed_mean(samples) for samples in per_job if samples]
    measured = {
        "setup_s": statistics.median(total for _, total in setups),
        "jobs_per_s": done / wall,
        "job_p50_s": statistics.median(typical),
        "job_p75_s": statistics.quantiles(typical, n=4)[2],
    }
    # The machine's speed also drifts from one run to the next, by more
    # than the bounds, and every job, interpreter start and calibration task
    # slows by about the same factor. Scaling by the calibration task, timed
    # before every job, reports each timing at the reference speed.
    calibration = _trimmed_mean(calibrations)
    scale = CALIBRATION_S / calibration
    print(
        f"   unscaled: calibration {calibration:.6f} s (scale {scale:.4f}), "
        + ", ".join(f"{name} {value:.6g}" for name, value in measured.items())
    )
    metrics = {name: value * scale for name, value in measured.items()}
    metrics["jobs_per_s"] = measured["jobs_per_s"] / scale
    metrics["peak_rss_mb"] = max(rss)
    return metrics, done


# Per-layer metrics that are totals of a noted count.
COUNTS = {
    "checker.visited_states": ("checker.g_check", "checker.fg_check"),
    "formulas.envs_evaluated": ("formulas.verify_condition",),
    "circuit.product_states": ("circuit.compose",),
    "circuit.product_edges": ("circuit.compose",),
    "circuit.smt_bytes": ("circuit.emit_smt",),
    "formulas.solve_vars": ("formulas.first_model",),
    "formulas.assignments_tried": ("formulas.first_model",),
}


def per_layer(cli, jobs, recorded, seconds, failures, trace_file):
    plain_s = traced_s = 0.0
    totals: dict[str, dict] = {}
    points: dict[str, list] = {}
    passes = done = 0
    start = time.perf_counter()
    hard_stop = start + max(2 * seconds, seconds + 60)
    while passes == 0 or time.perf_counter() - start < seconds:
        # Each job runs untraced and then traced, back to back, so that both
        # runs see the same load on the machine and their ratio is the
        # tracing overhead. The spans file keeps the last pass.
        trace_file.write_text("", encoding="utf-8")
        traced = []
        for job in jobs:
            if time.perf_counter() > hard_stop:
                break
            plain = run_checked(cli, job, recorded, failures)
            traced.append(run_checked(cli, job, recorded, failures, trace_file, done + 1))
            done += 2
            plain_s += plain.get("seconds", 0.0)
            traced_s += traced[-1].get("seconds", 0.0)
        if len(traced) < len(jobs):
            break
        passes += 1
        for result in traced:
            for name, entry in result.get("layers", {}).items():
                total = totals.setdefault(name, {})
                for key, value in entry.items():
                    if key != "size":
                        total[key] = total.get(key, 0.0) + value
                if entry.get("size"):
                    points.setdefault(name, []).append((entry["size"], entry["incl_s"]))
    if passes == 0:
        raise RuntimeError("no complete pass within the time limit")
    setup_import = statistics.median(imported for imported, _ in measure_setup(SETUP_RUNS))

    def total(layer, key):
        return totals.get(layer, {}).get(key, 0.0) / passes

    metrics = {"setup.import_s": setup_import, "trace.overhead_share": traced_s / plain_s - 1}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name in metrics:
            continue
        layer, _, kind = name.rpartition(".")
        if name in COUNTS:
            metrics[name] = sum(total(source, kind) for source in COUNTS[name])
        elif kind in ("calls", "self_s"):
            metrics[name] = total(layer, kind)
        elif kind == "slope":
            metrics[name] = _slope(points.get(layer, []))
        elif name == "circuit.states_per_s":
            busy = total("circuit.compose", "self_s")
            metrics[name] = total("circuit.compose", "product_states") / busy if busy else 0.0
    return metrics, done


# --- Entry points ---------------------------------------------------------------


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workloads.jobs(workload, seed)
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    failures: list[str] = []
    if trace:
        trace_file = WORK / f"spans-{workload}.jsonl"
        metrics, attempted = per_layer(cli, jobs, recorded, seconds, failures, trace_file)
        metrics["failed_share"] = len(failures) / attempted
        wanted = SPEC["per_layer"]
    else:
        metrics, attempted = end_to_end(cli, jobs, recorded, seconds, failures)
        wanted = SPEC["end_to_end"]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    missing = [spec["name"] for spec in wanted if spec["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]} for spec in wanted},
    }


def print_metrics(title: str, result: dict) -> None:
    print(f"== {title}: {result['attempted']} jobs, {result['failed']} failed")
    for name, entry in result["metrics"].items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")


def generator_problems(jobs) -> list[str]:
    """Generated machines must be valid and unambiguous for every handshake."""

    from xdicheck import labeling, machine

    problems = []
    for job in jobs:
        for name, text in job.files:
            if not name.endswith(".xdi"):
                continue
            mach, _ = machine.parse_document(text)
            problems.extend(f"{job.key}: {v}" for v in machine.validate(mach).violations)
            problems.extend(
                f"{job.key}: ambiguous for {handshake}"
                for handshake in sorted(mach.handshakes)
                if labeling.check_unambiguous(mach, handshake).ambiguous
            )
    return problems


def record(cli) -> int:
    """Run every job any seed can draw, check its known answer, and store
    the digests of its stdout and SMT-LIB text in expected.json."""

    recorded, bad = {}, 0
    everything = [job for workload in workloads.WORKLOADS for job in workloads.catalog(workload)]
    for job in everything:
        result = run_job(cli, job)
        own = {"stdout": _digest(result.get("stdout", ""))}
        if "smt" in result:
            own["smt"] = _digest(result["smt"])
        reason = check(job, result, own)
        if reason:
            bad += 1
            print(f"FAILED {job.key}: {reason}", file=sys.stderr)
        else:
            recorded[job.key] = own
    # After the jobs, so that no child inherits the caches this fills.
    for problem in generator_problems(everything):
        bad += 1
        print(f"FAILED {problem}", file=sys.stderr)
    if bad:
        print(f"{bad} problems; nothing recorded", file=sys.stderr)
        return 1
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} jobs in {EXPECTED.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from xdicheck import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"xdicheck was imported from {cli.__file__}, not from {SRC}")

    os.environ.pop(THREADS_VAR, None)
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record(cli)
    if args.workload:
        result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
        print_metrics(f"{args.workload} seed {args.seed} trace {args.trace}", result)
        print(json.dumps(result))
        return 0
    everything = {"seed": args.seed, "workloads": SPEC["workloads"], "results": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(cli, workload, args.seed, args.seconds, bool(trace))
            print_metrics(f"{workload} trace {trace}", result)
            everything["results"][f"{workload}/trace{trace}"] = result
    out = WORK / f"results-seed{args.seed}.json"
    out.write_text(json.dumps(everything, indent=1) + "\n", encoding="utf-8")
    print(f"all results written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
