"""Self-test of the benchmark on a tiny workload; runs in seconds.

    python3 bench/selftest.py

Runs a ring and a bifurcation case at 1 mm cells once untraced and twice
traced, then checks that:
- each run prints exactly the metrics BENCHMARK.json names, with its units;
- every case passes its output checks;
- the work counts repeat exactly across the two traced runs;
- the workload names and reasons match BENCHMARK.json;
- without the dropmaze sources the benchmark exits non-zero and prints
  no result.
Exits 0 when all hold, 1 otherwise, printing each failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, tiny_workload  # noqa: E402

REPEATING = (
    "solver.iterations",
    "dynamics.steps",
    "dynamics.force_evals",
    "oracle.stream_steps",
    "oracle.analysis_calls",
    "scenario.corner_probes",
)


def _bare_checkout_fails(work: Path) -> list[str]:
    """Run the benchmark in a directory holding only BENCHMARK.json and bench/."""
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "droplet_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare checkout: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.WORK / "selftest"
    workload = tiny_workload(seed=1)
    plain = run.measure(workload, 1, 0.0, False, work, None)
    traced = [run.measure(workload, 1, 0.0, True, work, None) for _ in range(2)]

    errors = []
    for label, record, declared in (
        ("untraced", plain, spec["end_to_end"]),
        ("traced 1", traced[0], spec["per_layer"]),
        ("traced 2", traced[1], spec["per_layer"]),
    ):
        got = {name: m["unit"] for name, m in record["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        if got != want:
            errors.append(f"{label}: metrics {sorted(set(got.items()) ^ set(want.items()))}"
                          " differ from BENCHMARK.json")
        for case, problems in record["failures"].items():
            errors.append(f"{label}: {case} failed: {'; '.join(problems)}")
    for name in REPEATING:
        first, second = (t["metrics"][name]["value"] for t in traced)
        if first != second or first == 0:
            errors.append(f"{name} did not repeat exactly: {first} then {second}")
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != {name: why for name, (_, why) in WORKLOADS.items()}:
        errors.append("workload names or reasons differ from BENCHMARK.json")
    errors += _bare_checkout_fails(work)
    shutil.rmtree(work, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
