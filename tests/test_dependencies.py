"""The package runs on numpy alone. Importing scipy would add tens of MB
and close to half a second to every run, so a stray import anywhere on
the simulate path fails here."""

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
