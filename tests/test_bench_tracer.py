"""The benchmark's tracer (`bench/tracing.py`) wraps package functions that
it looks up by name. A rename that would break `bench/run.py --trace 1`
fails here, with the fast tests."""

import importlib
from pathlib import Path

import pytest

from dropmaze import solver
from dropmaze.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

BIFURCATION_CFG = """\
generator = bifurcation
len_a_mm = 36
len_b_mm = 44
channel_width_mm = 4
cell_size_mm = 1.0
"""


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_tracer_binds_every_traced_name_and_puts_it_back(tracing):
    traced = {
        **{name: module for name, (module, _) in tracing.SPANS.items()},
        **tracing.COUNTERS,
    }
    originals = {name: getattr(importlib.import_module(m), name) for name, m in traced.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, module in traced.items():
            assert getattr(importlib.import_module(module), name) is not originals[name], name
    finally:
        tracer.uninstall()
    for name, module in traced.items():
        assert getattr(importlib.import_module(module), name) is originals[name], name
    # `_unknowns` recounts solve_potential's unknowns with these two.
    assert callable(solver.face_conductances)
    assert callable(solver._neighbor_sum)


def test_traced_run_counts_the_work_the_selftest_requires(tracing, tmp_path):
    """One small case through the tracer: every per-layer count that the
    benchmark's self-test needs above zero is above zero."""
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(BIFURCATION_CFG)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.case = "pair"
    try:
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracing.layer_metrics(tracer, {"pair": (tracer.spans[0][1], tracer.spans[-1][2])})
    for name in (
        "solver.iterations",
        "solver.unknowns",
        "dynamics.steps",
        "dynamics.force_evals",
        "oracle.stream_steps",
        "oracle.analysis_calls",
        "scenario.corner_probes",
    ):
        assert metrics[name][0] > 0, name
