"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py setup CONFIG...
    python3 bench/worker.py run --out DIR --result FILE [--trace] CONFIG...

Both modes import dropmaze and parse every config, then record
`time.monotonic()` as the ready stamp; the parent subtracts its spawn
stamp (the clock is system-wide) to get the set-up time. `setup` stops
there and prints the stamp. `run` then runs each config through
`dropmaze simulate`, one after another in this process, and writes a JSON
result: the pass wall time, each case's exit code and window, peak RSS,
the environment and, with --trace, the spans and layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import sys
import time
from pathlib import Path


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _run_case(cli, config: str, out: Path) -> tuple[int | None, str]:
    """Exit code of `dropmaze simulate` and its stderr; None for a raise."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", config, "--out", str(out)])
    except Exception as exc:  # a raising case is a failed case, not a failed benchmark
        return None, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)

    from dropmaze import cli
    from dropmaze.scenario import load_config

    for config in args.configs:
        load_config(config)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    cases = []
    first = time.perf_counter()
    for config in args.configs:
        name = Path(config).stem
        if tracer is not None:
            tracer.case = name
        start = time.perf_counter()
        code, message = _run_case(cli, config, Path(args.out) / name)
        cases.append({"name": name, "exit_code": code, "message": message,
                      "window": (start, time.perf_counter())})
    wall = time.perf_counter() - first

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": _blas_threads(),
        "cases": cases,
    }
    if tracer is not None:
        tracer.uninstall()
        windows = {c["name"]: tuple(c["window"]) for c in cases}
        result["layers"] = layer_metrics(tracer, windows)
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
