"""Benchmark for dropmaze: the real `dropmaze simulate` pipeline on one
named workload, with output checks.

    python3 bench/run.py --workload ring_fine --seed 0 --seconds 55 --trace 0

Run it from anywhere inside a source checkout; it imports dropmaze from
`src/` and writes only under `bench/_work/`. Each pass runs every case of
the workload once, one after another, in a fresh interpreter (a closed
loop with one caller, no --jobs). The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones: `wall_s` (median pass),
`setup_s` (median of fresh-interpreter set-ups), both scaled to reference
speed by bench/calibrate.py running beside them, and `peak_rss_mb`. With
`--trace 1` they are the per-layer ones, from one traced pass, plus the
tracing overhead against an untraced pass. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS, Workload, make_workload, write_configs  # noqa: E402

SETUP_SAMPLES = 9  # fresh-interpreter set-ups per untraced run, passes included
BLAS_THREADS = 1  # at most nproc; one keeps BLAS from competing with the Python thread
DEADLINE_S = 170.0  # every run must finish within 180 s
REF_SLICE_S = 0.04  # a calibration slice's time at reference speed
IMBALANCE_MAX = 1e-6
PASSING_EXIT_CODES = (0, 2)  # reached the target, locked at a bifurcation
REFERENCE_KEYS = ("exit_code", "termination", "converged",
                  "trajectory_sequence", "path_sequence", "streamline_sequence")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed case)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, float, str]:
    """Run bench/worker.py to completion; returns its spawn and end stamps
    and its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before starting worker {args[0]}")
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {args[0]} exceeded the run deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {done.returncode}: {done.stderr.strip()}")
    return spawned, time.monotonic(), done.stdout


def _setup_sample(configs: list[str], deadline: float) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, and its ready stamp."""
    spawned, _, stdout = _worker(["setup", *configs], deadline)
    ready = json.loads(stdout)["ready"]
    return ready - spawned, ready


def _run_pass(configs: list[str], out: Path, trace: bool, deadline: float) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    result_file = out.with_suffix(".json")
    args = ["run", "--out", str(out), "--result", str(result_file)]
    spawned, ended, _ = _worker(args + (["--trace"] if trace else []) + configs, deadline)
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["ready"] - spawned
    result["window"] = (spawned, ended)
    return result


class Calibrator:
    """bench/calibrate.py running on the other core while passes are timed.

    `scale(start, end)` is REF_SLICE_S over the median time of the slices
    that overlap [start, end]: multiplying a time measured in that window
    by it gives the time at reference speed.
    """

    def __init__(self, log: Path, deadline: float):
        if len(os.sched_getaffinity(0)) < 2:
            raise BenchError("the reference kernel needs a second core")
        self.log = log
        self._out = log.open("w")
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py")],
                                     env=_child_env(), cwd=ROOT, stdout=self._out)
        try:
            while not self.slices():  # numpy imported and one slice timed
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("the reference kernel did not start")
                time.sleep(0.01)
        except BaseException:  # also SIGTERM's SystemExit: never leave the kernel running
            self.stop()
            raise

    def slices(self) -> list[tuple[float, float]]:
        lines = self.log.read_text().split("\n")[:-1]  # the last may be half written
        return [tuple(float(x) for x in line.split()) for line in lines]

    def scale(self, start: float, end: float) -> float:
        durations = [b - a for a, b in self.slices() if b > start and a < end]
        if not durations:
            raise BenchError("no reference slice overlaps a timed window")
        return REF_SLICE_S / statistics.median(durations)

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self._out.close()


def _outcome(case: dict, bundle: Path) -> dict:
    """What a case produced, read back from its bundle."""
    out = {"exit_code": case["exit_code"], "message": case["message"]}
    try:
        report = json.loads((bundle / "report.json").read_text())
        comparison = json.loads((bundle / "comparison.json").read_text())
    except FileNotFoundError:
        return out
    out.update(
        termination=report["trajectory"]["termination"],
        converged=report["solve"]["converged"],
        current_imbalance=report["solve"]["current_imbalance"],
        trajectory_sequence=comparison["trajectory_sequence"],
        path_sequence=comparison["path_sequence"],
        streamline_sequence=comparison["streamline_sequence"],
    )
    return out


def _problems(outcome: dict, ring: bool, reference: dict | None) -> list[str]:
    """Why a case failed; empty when it passed."""
    code = outcome["exit_code"]
    if code is None:
        return [f"raised {outcome['message']}"]
    if code not in PASSING_EXIT_CODES:
        return [f"exit code {code}: {outcome['message']}"]
    if "termination" not in outcome:
        return ["bundle missing report.json or comparison.json"]
    problems = []
    if not outcome["current_imbalance"] <= IMBALANCE_MAX:
        problems.append(f"current imbalance {outcome['current_imbalance']:.3g}")
    if ring and outcome["trajectory_sequence"] != outcome["path_sequence"]:
        problems.append("droplet corridor sequence differs from the Lee path's")
    if reference is not None:
        for key in REFERENCE_KEYS:
            if outcome[key] != reference[key]:
                problems.append(f"{key} {outcome[key]!r} != reference {reference[key]!r}")
    return problems


def _environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "loadavg_start": os.getloadavg(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
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


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
            reference: dict | None) -> dict:
    """Run the workload and check every case; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(work, ignore_errors=True)
    configs = [str(p) for p in write_configs(workload, work / "configs")]
    env = _environment()

    passes, outcomes, failures = [], [], {}

    def run_pass(traced: bool) -> None:
        # Every pass rewrites the same bundles, so check them before the next.
        result = _run_pass(configs, work / "out", traced, deadline)
        passes.append(result)
        for case, spec in zip(result["cases"], workload.cases):
            outcome = _outcome(case, work / "out" / spec.name)
            ref = reference.get(spec.name) if reference is not None else None
            if reference is not None and ref is None:
                problems = ["no reference outcome recorded for the default seed"]
            else:
                problems = _problems(outcome, spec.ring, ref)
            if problems:
                failures[f"pass{len(passes)}/{spec.name}"] = problems
            outcomes.append(dict(outcome, case=spec.name, passed=not problems))

    if trace:
        run_pass(False)
        run_pass(True)
    else:
        calibrator = Calibrator(work / "calibration.txt", deadline)
        try:
            # Set-up samples go before and after the passes, so that their
            # median spans the run rather than one moment of it.
            setups = [_setup_sample(configs, deadline) for _ in range(SETUP_SAMPLES // 2)]
            started = time.monotonic()
            while True:
                run_pass(False)
                typical = statistics.median(p["wall_s"] + p["setup_s"] for p in passes)
                if time.monotonic() - started + typical > seconds:
                    break
            setups += [(p["setup_s"], p["ready"]) for p in passes]
            setups += [_setup_sample(configs, deadline)
                       for _ in range(SETUP_SAMPLES - len(setups))]
            for p in passes:
                p["scale"] = calibrator.scale(*p["window"])
            setup_scaled = [s * calibrator.scale(ready - s, ready) for s, ready in setups]
        finally:
            calibrator.stop()

    env["blas_threads"] = passes[-1]["blas_threads"]
    if trace:
        layers = dict(passes[-1]["layers"])
        layers["render.bytes"] = (
            sum(f.stat().st_size for f in (work / "out").rglob("*") if f.is_file()), "B")
        layers["trace.overhead_s"] = (passes[1]["wall_s"] - passes[0]["wall_s"], "s")
        metrics = layers
        (work / "spans.json").write_text(json.dumps(passes[-1]["spans"]))
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] * p["scale"] for p in passes), "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    return {
        "workload": workload.name,
        "why": workload.why,
        "reuse_frac": workload.reuse_frac,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scale": [p.get("scale") for p in passes],
        "outcomes": outcomes,
        "failures": failures,
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": sum(not o["passed"] for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps the
    # running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "dropmaze" / "__init__.py").is_file():
        print(f"no dropmaze sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})

    workload = make_workload(args.workload, args.seed)
    work = WORK / args.workload
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), work, reference)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    (WORK / f"{args.workload}.result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"workload {workload.name} seed {args.seed}: {len(workload.cases)} cases,"
          f" reuse {record['reuse_frac']:.2f}; pass wall s: "
          + ", ".join(f"{w:.3f}" for w in record["pass_wall_s"]))
    if not args.trace:
        print("reference-speed scale per pass: "
              + ", ".join(f"{k:.3f}" for k in record["pass_scale"]))
    for case, problems in record["failures"].items():
        print(f"FAILED {case}: {'; '.join(problems)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
