"""Best-of-15 wall-clock seconds of the pipeline's grid stages, called directly.

    python3 tools/bench_stages.py --out FILE [--quick] [--src DIR] [--label NAME]

On ring_m2 at 0.5, 0.25 and 0.125 mm cells (140², 280² and 560² grids) it
times generate_ring_maze, prepare_fields (a cold maze stage: build and
solve), segment_corridors, thin_mask of the channel, lee_label,
run_scenario (from a cold maze stage, so with its solve) and the
current.csv write. On a 280² serpentine of one-cell channels, where every
channel cell is on the skeleton's band and the Lee wavefront is one cell
wide, it times segment_corridors, thin_mask and lee_label. --quick runs
the 140² ring only.

The package is imported from --src (default: this checkout's src), so
the same script times another tree, for example a parent commit's. The
result goes under runs[<label>] of the JSON file at --out; runs of other
labels already in the file are kept, so one file holds a before and an
after. Each run records the Python and numpy versions, the core count,
the BLAS thread settings and the git commit of --src (with "-dirty"
when its checkout has uncommitted changes). BLAS thread variables that
are unset are set to 1, as the benchmark runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
RING_CELLS_MM = {"ring_m2_140": 0.5, "ring_m2_280": 0.25, "ring_m2_560": 0.125}
SERPENTINE_CELLS = 280
REPEAT = 15  # calls per stage; the fastest is kept


def serpentine_text(n: int) -> str:
    """An n x n maze file: one-cell channels on every other row, joined at
    alternate ends, from S at the top left to T at the end of the last one."""
    rows = [bytearray(b"#" * n) for _ in range(n)]
    channel_rows = range(1, n - 1, 2)
    for k, iy in enumerate(channel_rows):
        rows[iy][1 : n - 1] = b"." * (n - 2)
        if iy + 2 < n - 1:
            rows[iy + 1][n - 2 if k % 2 == 0 else 1] = ord(".")
    last = channel_rows[-1]
    rows[1][1] = ord("S")
    rows[last][n - 2 if len(channel_rows) % 2 else 1] = ord("T")
    return "\n".join(row.decode() for row in rows) + "\n"


def best_of(call) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def git_sha(path: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def time_stages(quick: bool) -> dict:
    import dropmaze
    from dropmaze import generators, oracle, render, scenario

    def cold(call, cfg):
        scenario._forget_solved_maze()
        return call(cfg)

    def analysis(maze) -> dict:
        channel = maze.channel_mask()
        return {
            "segment_corridors": best_of(lambda: oracle.segment_corridors(maze)),
            "thin_mask": best_of(lambda: oracle.thin_mask(channel)),
            "lee_label": best_of(lambda: oracle.lee_label(maze)),
        }

    ring = scenario.load_config(ROOT / "configs" / "ring_m2.cfg")
    cases = {}
    names = ["ring_m2_140"] if quick else list(RING_CELLS_MM)
    for name in names:
        cfg = dataclasses.replace(ring, cell_size_mm=RING_CELLS_MM[name])
        maze = scenario.build_maze(cfg)
        solved = cold(scenario.prepare_fields, cfg)
        with tempfile.TemporaryDirectory() as out:
            csv = Path(out) / "current.csv"
            cases[name] = {
                "grid": [maze.ny, maze.nx],
                "generate_ring_maze": best_of(lambda: generators.generate_ring_maze(
                    cfg.rings, list(cfg.gaps_per_ring), cfg.diameter_mm,
                    cfg.channel_width_mm, cfg.seed, cell_size_mm=cfg.cell_size_mm,
                )),
                "prepare_fields": best_of(lambda: cold(scenario.prepare_fields, cfg)),
                **analysis(maze),
                "run_scenario": best_of(lambda: cold(scenario.run_scenario, cfg)),
                "current_csv": best_of(lambda: render.write_field_csv(csv, solved.fields.j)),
            }
    if not quick:
        maze = dropmaze.parse_maze(serpentine_text(SERPENTINE_CELLS))
        cases[f"serpentine_{SERPENTINE_CELLS}"] = {
            "grid": [maze.ny, maze.nx],
            **analysis(maze),
        }
    scenario._forget_solved_maze()
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the 140² ring only")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package source to time")
    parser.add_argument("--label", default="run", help="key of this run in the file")
    parser.add_argument("--out", type=Path, required=True, help="JSON file, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    run = {
        "git_sha": git_sha(args.src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "repeat": REPEAT,
        "quick": args.quick,
        "seconds": time_stages(args.quick),
    }
    doc = {"description": "best-of-repeat seconds of direct calls, by case and stage", "runs": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["runs"][args.label] = run
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
