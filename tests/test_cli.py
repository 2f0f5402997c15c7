import json
from pathlib import Path

import pytest

import dropmaze as dm
from dropmaze.cli import main
from dropmaze.maze import parse_maze

from conftest import straight_channel_text

RING_CFG = """\
generator = ring
rings = 2
gaps_per_ring = 1,1
diameter_mm = 70
channel_width_mm = 4
seed = 1
static_threshold = 1.9e-3
radius_mm = 1.0
max_steps = 100000
"""

SYM_CFG = """\
generator = bifurcation
len_a_mm = 40
len_b_mm = 40
channel_width_mm = 4
start = axis
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Every float-valued config key.
FLOAT_KEYS = (
    "mobility", "static_threshold", "dt", "lock_epsilon_mm", "force_gain", "radius_mm",
    "release_time", "stall_fraction", "noise_amplitude", "diameter_mm", "channel_width_mm",
    "wall_mm", "exit_angle_deg", "len_a_mm", "len_b_mm", "cell_size_mm", "sigma_electrolyte",
    "sigma_wall", "sigma_coating", "voltage", "tol",
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_generate_round_trips(tmp_path, capsys):
    cfg = _write(tmp_path, "ring.cfg", RING_CFG)
    out = tmp_path / "ring.maze"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    spec = parse_maze(out.read_text())
    assert dm.validate_and_components(spec).solvable


def test_generate_seed_override_changes_maze(tmp_path):
    cfg = _write(tmp_path, "ring.cfg", RING_CFG)
    a, b = tmp_path / "a.maze", tmp_path / "b.maze"
    main(["generate", "--config", cfg, "--out", str(a)])
    main(["generate", "--config", cfg, "--seed", "9", "--out", str(b)])
    assert a.read_text() != b.read_text()


def test_simulate_straight_channel_exit_zero(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text(length_cells=120))
    cfg = _write(
        tmp_path,
        "straight.cfg",
        f"maze_file = {maze}\nstatic_threshold = 0\nout = {tmp_path / 'out'}\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["trajectory"]["termination"] == "reached_target"
    assert abs(report["comparison"]["length_ratio"] - 1.0) <= 0.05


def test_simulate_symmetric_lock_exit_two(tmp_path):
    cfg = _write(tmp_path, "sym.cfg", SYM_CFG + f"out = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", cfg]) == 2


def test_simulate_max_steps_exit_three(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text(length_cells=120))
    cfg = _write(
        tmp_path,
        "slow.cfg",
        f"maze_file = {maze}\nstatic_threshold = 0\nmax_steps = 5\nout = {tmp_path / 'out'}\n",
    )
    assert main(["simulate", "--config", cfg]) == 3


def test_bad_config_exit_four(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "generator = ring\nwobble = 1\n")
    assert main(["simulate", "--config", cfg]) == 4
    missing = str(tmp_path / "nope.cfg")
    assert main(["simulate", "--config", missing]) == 4


def test_unsolvable_exit_five(tmp_path):
    maze = _write(tmp_path, "blocked.maze", "S.#.T")
    cfg = _write(tmp_path, "blocked.cfg", f"maze_file = {maze}\n")
    assert main(["simulate", "--config", cfg]) == 5


@pytest.mark.parametrize(
    "line",
    [f"{key} = nan" for key in FLOAT_KEYS] + ["start = nan,1", "voltage = inf", "dt = -inf"],
)
def test_non_finite_config_value_exit_four(tmp_path, capsys, line):
    cfg = _write(tmp_path, "bad.cfg", f"generator = bifurcation\n{line}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "config error: bad" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", ["cell_size_mm = nan", "voltage = inf"])
def test_non_finite_maze_header_exit_four(tmp_path, capsys, header):
    maze = _write(tmp_path, "bad.maze", straight_channel_text().replace("voltage = 5.0", header))
    cfg = _write(tmp_path, "bad.cfg", f"maze_file = {maze}\n")
    assert main(["simulate", "--config", cfg]) == 4
    assert "(line 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_start_in_a_wall_exit_five(tmp_path, command):
    """Both commands honour an explicit start; one inside a wall cannot start."""
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    cfg = _write(tmp_path, "wall.cfg", f"maze_file = {maze}\nstart = 5.25,0.25\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 5


def test_nonconvergence_exit_six(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text(length_cells=120))
    cfg = _write(tmp_path, "tight.cfg", f"maze_file = {maze}\nmax_iter = 2\n")
    assert main(["simulate", "--config", cfg]) == 6


def test_solve_subcommand_writes_fields(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    cfg = _write(tmp_path, "s.cfg", f"maze_file = {maze}\n")
    out = tmp_path / "fields"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "report.json",
        "potential.csv",
        "potential.pgm",
        "current.csv",
        "joule.pgm",
    }


def test_oracle_subcommand(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    cfg = _write(tmp_path, "o.cfg", f"maze_file = {maze}\n")
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"path.csv", "oracle.json"}
    oracle = json.loads((out / "oracle.json").read_text())["oracle"]
    assert oracle["streamline_matches_path"] is True
    assert oracle["path_sequence"] == oracle["streamline_sequence"]


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_oracle_reports_the_route_simulate_compares_against(name, tmp_path):
    """`oracle` reads the configured start, so its start cell, Lee path and
    sequences are those in the report of `simulate` on the same config."""
    cfg = str(CONFIGS / f"{name}.cfg")
    sim, ora = tmp_path / "simulate", tmp_path / "oracle"
    main(["simulate", "--config", cfg, "--out", str(sim)])
    assert main(["oracle", "--config", cfg, "--out", str(ora)]) == 0
    report = json.loads((sim / "report.json").read_text())
    oracle = json.loads((ora / "oracle.json").read_text())["oracle"]
    assert oracle["start_cell"] == report["trajectory"]["start_cell"]
    for key in ("path_cells", "path_length_mm", "path_sequence", "streamline_sequence",
                "streamline_matches_path"):
        assert oracle[key] == report["oracle"][key], key
    assert (ora / "path.csv").read_bytes() == (sim / "path.csv").read_bytes()


def test_render_subcommand(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    cfg = _write(tmp_path, "s.cfg", f"maze_file = {maze}\n")
    out = tmp_path / "fields"
    main(["solve", "--config", cfg, "--out", str(out)])
    img = tmp_path / "j.pgm"
    assert main(["render", "--field", str(out / "current.csv"), "--out", str(img)]) == 0
    assert img.read_bytes().startswith(b"P5\n")
    overlay = tmp_path / "jo.pgm"
    code = main(
        ["render", "--field", str(out / "current.csv"), "--out", str(overlay),
         "--style", "overlay", "--maze", maze]
    )
    assert code == 0


def test_compare_subcommand(tmp_path):
    cfg_a = _write(tmp_path, "a.cfg", RING_CFG + f"out = {tmp_path / 'a'}\n")
    cfg_b = _write(tmp_path, "b.cfg", RING_CFG + f"coat_corners = true\nout = {tmp_path / 'b'}\n")
    main(["simulate", "--config", cfg_a])
    main(["simulate", "--config", cfg_b])
    diff_file = tmp_path / "diff.json"
    assert main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                 "--out", str(diff_file)]) == 0
    diff = json.loads(diff_file.read_text())
    assert diff["corner_force_reduced"] is True


def test_simulate_multiple_configs_with_jobs(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text(length_cells=120))
    cfg1 = _write(tmp_path, "one.cfg", f"maze_file = {maze}\nstatic_threshold = 0\n")
    cfg2 = _write(tmp_path, "two.cfg", SYM_CFG)
    code = main(
        ["simulate", "--config", cfg1, cfg2, "--out", str(tmp_path / "batch"), "--jobs", "2"]
    )
    assert code == 2  # worst outcome wins: one run locked
    assert (tmp_path / "batch" / "one" / "report.json").exists()
    assert (tmp_path / "batch" / "two" / "report.json").exists()
