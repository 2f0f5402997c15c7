"""The package runs on numpy alone. Importing scipy would add tens of MB
and close to half a second to every run, so a stray import anywhere on
the simulate path fails here."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dropmaze

from conftest import straight_channel_text

CHILD = """
import sys
from dropmaze.scenario import ScenarioConfig, export_bundle, run_scenario
result = run_scenario(ScenarioConfig(maze_file=sys.argv[1]))
export_bundle(result, sys.argv[2])
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
print(result.exit_code)
"""


def test_simulate_path_does_not_import_scipy(tmp_path):
    maze = tmp_path / "straight.maze"
    maze.write_text(straight_channel_text(length_cells=30))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(dropmaze.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(maze), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
    assert len(list((tmp_path / "out").iterdir())) == 8


def test_solver_makes_no_blas_call():
    """The solver's sums come from numpy's own loops, never from BLAS,
    whose reductions round differently with the thread count: no matrix
    product, dot, einsum or np.linalg call appears in its source."""
    source = (Path(dropmaze.__file__).parent / "solver.py").read_text()
    tree = ast.parse(source)
    banned = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}
    found = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in banned
    ]
    found += [
        "@" for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", "") or ""]
            found += [name for name in names if banned & set(name.split("."))]
    assert not found, found
