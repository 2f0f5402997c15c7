from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

import dropmaze as dm
from dropmaze import scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_RUN_CLI = "import sys; from dropmaze.cli import main; sys.exit(main(sys.argv[1:]))"
from dropmaze.dynamics import DynamicsParams, simulate
from dropmaze.scenario import ScenarioConfig, resolve_start, run_scenario


@pytest.fixture(autouse=True)
def _cold_maze_stage():
    """Each test starts with an empty maze stage, so what it computes does
    not depend on which tests ran before it."""
    scenario._forget_solved_maze()

# The acceptance ring maze: M2 scale, 4 mm channels at 0.5 mm cells, 5 V.
RING_SEED = 1
RING_DYNAMICS = DynamicsParams(static_threshold=1.9e-3, radius_mm=1.0, max_steps=100_000)


def ring_config(**overrides) -> ScenarioConfig:
    base = dict(
        generator="ring",
        rings=2,
        gaps_per_ring=(1, 1),
        diameter_mm=70.0,
        channel_width_mm=4.0,
        cell_size_mm=0.5,
        seed=RING_SEED,
        voltage=5.0,
        dynamics=RING_DYNAMICS,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="session")
def ring_maze():
    return dm.generate_ring_maze(2, [1, 1], 70.0, 4.0, RING_SEED)


@pytest.fixture(scope="session")
def ring_fields(ring_maze):
    return dm.compute_fields(ring_maze)


@pytest.fixture(scope="session")
def ring_segmentation(ring_maze):
    return dm.segment_corridors(ring_maze)


@pytest.fixture(scope="session")
def ring_labels(ring_maze):
    return dm.lee_label(ring_maze)


@pytest.fixture(scope="session")
def ring_scenario():
    return run_scenario(ring_config())


def straight_channel_text(length_cells: int = 60, rows: int = 8, voltage: float = 5.0) -> str:
    wall = "#" * (length_cells + 2)
    body = []
    for r in range(rows):
        body.append("#S" + "." * (length_cells - 2) + "T#")
    return f"voltage = {voltage}\ncell_size_mm = 0.5\n\n" + "\n".join([wall] + body + [wall]) + "\n"


def sealed_source_pocket_text(length_cells: int = 40, rows: int = 8) -> str:
    """A straight channel from `S` to `T` below a walled-off room that
    holds more `S` cells: the maze is solvable, but no route starts in
    the room, which is nearer the top of the grid."""
    wall = "#" * (length_cells + 2)
    room = ["#S" + "." * 10 + "#" * (length_cells - 10)] * rows
    channel = ["#S" + "." * (length_cells - 2) + "T#"] * rows
    return "cell_size_mm = 0.5\n\n" + "\n".join([wall, *room, wall, *channel, wall]) + "\n"


@pytest.fixture(scope="session")
def straight_maze():
    return dm.parse_maze(straight_channel_text())


def run_droplet(maze, params, fields, start="auto"):
    """simulate from the start point, radius and Lee path that the route
    stage resolves for the `start` spec (auto, axis or "x,y" in mm)."""
    seg, labels = dm.segment_corridors(maze), dm.lee_label(maze)
    return simulate(maze, params, fields, *resolve_start(start, params, maze, seg, labels))


def count_calls(monkeypatch, *functions) -> Counter:
    """Calls of each function, by name, through every binding of it in a
    dropmaze module (so both `oracle.lee_label` and `scenario.lee_label`)."""
    calls = Counter()

    def counted(original):
        def wrapper(*args, **kwargs):
            calls[original.__name__] += 1
            return original(*args, **kwargs)

        return wrapper

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dropmaze"]
    for original in functions:
        wrapper = counted(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def run_cli(args: list[str], blas_threads: int) -> subprocess.CompletedProcess:
    """`dropmaze <args>` in a child interpreter whose BLAS runs
    blas_threads threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(dm.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return subprocess.run(
        [sys.executable, "-c", _RUN_CLI, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def bundle_bytes(path: Path) -> bytes:
    """A bundle file's bytes; report.json and oracle.json without their
    timestamp, serialised the way the pipelines write them."""
    data = path.read_bytes()
    if path.name in ("report.json", "oracle.json"):
        report = json.loads(data)
        report.pop("timestamp")
        data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return data
