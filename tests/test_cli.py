import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import dropmaze as dm
from dropmaze import cli, oracle, render, scenario, solver
from dropmaze.cli import main
from dropmaze.maze import parse_maze

from conftest import (
    bundle_bytes,
    count_calls,
    run_cli,
    sealed_source_pocket_text,
    straight_channel_text,
)

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


# Every physical constant away from its default.
PHYSICS = {
    "cell_size_mm": 1.0,
    "sigma_electrolyte": 2.5,
    "sigma_wall": 0.01,
    "sigma_coating": 1.0e4,
    "voltage": 3.0,
}
PHYSICS_CFG = "".join(f"{key} = {value!r}\n" for key, value in PHYSICS.items())


def test_generate_round_trips(tmp_path, capsys):
    """The written maze file parses back to the maze the config builds,
    with the config's physics; a ring and a bifurcation also with every
    physical constant set."""
    inputs = {"ring": RING_CFG, "ring_physics": RING_CFG + PHYSICS_CFG}
    inputs["bifurcation_physics"] = SYM_CFG + PHYSICS_CFG
    for label, text in inputs.items():
        cfg = _write(tmp_path, f"{label}.cfg", text)
        out = tmp_path / f"{label}.maze"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        spec = parse_maze(out.read_text())
        assert dm.validate_and_components(spec).solvable
        assert spec == scenario.build_maze(dm.load_config(cfg))
        if label.endswith("_physics"):
            got = (spec.cell_size, spec.sigma_electrolyte, spec.sigma_wall, spec.sigma_coating,
                   spec.applied_voltage)
            assert got == tuple(PHYSICS.values())
    # Without --out the maze goes to stdout.
    capsys.readouterr()
    assert main(["generate", "--config", cfg]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_generate_rejects_an_unsolvable_maze(tmp_path, monkeypatch, capsys):
    """The generators leave the solvability check to their callers:
    generate makes it and exits 4, writing nothing."""
    sealed = parse_maze("S.#.T\nS.#.T\nS.#.T")
    monkeypatch.setattr(cli, "build_maze", lambda cfg: sealed)
    out = tmp_path / "ring.maze"
    cfg = _write(tmp_path, "ring.cfg", RING_CFG)
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 4
    assert "not solvable" in capsys.readouterr().err
    assert not out.exists()


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


def _strict_json(path: Path):
    """path's JSON, read by a parser that rejects NaN and the infinities."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_undefined_ratios_are_written_as_null(tmp_path):
    """A run that starts in a target cell has a Lee path of length 0, and a
    straight channel has no corner force: the length ratio, and the
    reduction factor of a compare against such a bundle, are undefined,
    and the files hold null for them."""
    maze = _write(tmp_path, "straight.maze", straight_channel_text(30))
    out = tmp_path / "out"
    cfg = _write(tmp_path, "straight.cfg",
                 f"maze_file = {maze}\nstart = 15.25,2.25\nradius_mm = 0.2\nout = {out}\n")
    assert main(["simulate", "--config", cfg]) == 0
    assert _strict_json(out / "report.json")["comparison"]["length_ratio"] is None
    assert _strict_json(out / "comparison.json")["length_ratio"] is None
    assert main(["compare", "--a", str(out), "--b", str(out), "--out", str(tmp_path / "d.json")]) == 0
    diff = _strict_json(tmp_path / "d.json")
    assert diff["corner_force_per_ampere_b"] == 0.0
    assert diff["reduction_factor"] is None


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


@pytest.mark.parametrize(
    "line",
    [
        "mobility = -1", "lock_window = 0", "stall_fraction = 2", "dt = -1",
        "static_threshold = -1", "tol = 0", "tol = -1", "cell_size_mm = 0", "max_steps = -1",
        "max_iter = -3", "radius_mm = -1", "noise_amplitude = -0.001", "lock_epsilon_mm = -1",
        "release_time = -1", "force_gain = 0", "force_gain = -1", "wall_mm = 0", "wall_mm = -1",
        "channel_width_mm = 0", "channel_width_mm = -4",
    ],
)
def test_out_of_range_config_value_exit_four(tmp_path, capsys, line):
    """Finite values outside a key's range are config errors too, not a
    traceback or a run that quietly reads them as something else. The
    ring config is the one whose maze source reads wall_mm."""
    key = line.split(" = ")[0]
    base = "ring_m2.cfg" if key == "wall_mm" else "bifurcation_lock.cfg"
    kept = [
        kept for kept in (CONFIGS / base).read_text().splitlines()
        if kept.partition("=")[0].strip() not in (key, "out")
    ]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(kept + [line]) + "\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


_SOURCES = {"maze_file": "maze_file = {maze}\n", "ring": RING_CFG, "bifurcation": SYM_CFG}
_UNREAD_KEYS = {
    "maze_file": (
        "rings = 7", "gaps_per_ring = 1,1", "diameter_mm = 70", "channel_width_mm = 4",
        "wall_mm = 2", "exit_angle_deg = 30", "len_a_mm = 38", "len_b_mm = 42", "seed = 3",
        "cell_size_mm = 0.5", "sigma_electrolyte = 10", "sigma_wall = 0", "sigma_coating = 1e5",
        "voltage = 2.0",
    ),
    "ring": ("len_a_mm = 38", "len_b_mm = 42"),
    "bifurcation": (
        "rings = 2", "gaps_per_ring = 1,1", "diameter_mm = 70", "wall_mm = 2",
        "exit_angle_deg = 30", "seed = 1",
    ),
}


@pytest.mark.parametrize(
    "source, line",
    [
        pytest.param(source, line, id=f"{source}-{line}")
        for source, lines in _UNREAD_KEYS.items()
        for line in lines
    ],
)
def test_key_the_maze_source_does_not_read_exit_four(tmp_path, capsys, source, line):
    """A key that the config's maze source never reads is a config error,
    not a run that echoes a value it did not use."""
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    cfg = _write(tmp_path, "unread.cfg", _SOURCES[source].format(maze=maze) + line + "\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    key = line.split(" = ")[0]
    assert f"config error: {key!r} is not read with" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["maze_file", "bifurcation"])
def test_seed_flag_the_maze_source_does_not_read_exit_four(tmp_path, capsys, source):
    """--seed is held to the config's own rule: on a maze source that
    never reads the seed, every command that loads a config refuses it
    instead of echoing a seed the run did not use."""
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    cfg = _write(tmp_path, "seedless.cfg", _SOURCES[source].format(maze=maze))
    for command in ("generate", "solve", "simulate", "oracle"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--seed", "5", "--out", str(out)]) == 4
        assert "config error: 'seed' is not read with" in capsys.readouterr().err
        assert not out.exists()


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
    """Every run reports the non-convergence; the maze stage keeps no failed
    solve."""
    maze = _write(tmp_path, "straight.maze", straight_channel_text(length_cells=120))
    for max_iter in (2, 1):
        cfg = _write(tmp_path, "tight.cfg", f"maze_file = {maze}\nmax_iter = {max_iter}\n")
        assert main(["simulate", "--config", cfg]) == 6
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


def test_compare_subcommand(tmp_path, capsys):
    cfg_a = _write(tmp_path, "a.cfg", RING_CFG + f"out = {tmp_path / 'a'}\n")
    cfg_b = _write(tmp_path, "b.cfg", RING_CFG + f"coat_corners = true\nout = {tmp_path / 'b'}\n")
    main(["simulate", "--config", cfg_a])
    main(["simulate", "--config", cfg_b])
    diff_file = tmp_path / "diff.json"
    assert main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                 "--out", str(diff_file)]) == 0
    diff = json.loads(diff_file.read_text())
    assert diff["corner_force_reduced"] is True
    # Without --out the diff goes to stdout.
    capsys.readouterr()
    assert main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == diff_file.read_text()


@pytest.mark.parametrize("bundle", ["solve", "truncated"])
def test_compare_on_a_bundle_without_a_simulate_report_exit_four(tmp_path, capsys, bundle):
    out = tmp_path / "bundle"
    if bundle == "solve":
        maze = _write(tmp_path, "straight.maze", straight_channel_text())
        cfg = _write(tmp_path, "s.cfg", f"maze_file = {maze}\n")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    else:
        out.mkdir()
        (out / "report.json").write_text('{"corner_force": {"max": 1.0,')
    assert main(["compare", "--a", str(out), "--b", str(out)]) == 4
    err = capsys.readouterr().err
    assert "config error" in err and str(out / "report.json") in err


@pytest.mark.parametrize(
    "text, style",
    [
        pytest.param("x,y,potential_V\n0.25,0.25,1\n", "gray", id="header"),
        # The tag of a force field dropmaze no longer derives.
        pytest.param(
            "x_mm,y_mm,grad_J_A_per_m3,vx,vy\n0.25,0.25,1,1,1\n", "gray", id="vector-tag"
        ),
        pytest.param("x_mm,y_mm,speed\n0.25,0.25,1\n", "gray", id="scalar-tag"),
        pytest.param("", "gray", id="empty"),
        pytest.param("x_mm,y_mm,potential_V\n", "gray", id="no-rows"),
        pytest.param("x_mm,y_mm,potential_V\n0.25,0.25,1\n", "strokes", id="strokes-of-scalar"),
    ],
)
def test_render_an_unreadable_field_csv_exit_four(tmp_path, capsys, text, style):
    csv = _write(tmp_path, "f.csv", text)
    code = main(["render", "--field", csv, "--out", str(tmp_path / "f.pgm"), "--style", style])
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and csv in err
    assert not (tmp_path / "f.pgm").exists()


@pytest.mark.parametrize("maze_cells", [None, 50], ids=["no-maze", "other-grid"])
def test_render_overlay_needs_the_field_s_maze_exit_four(tmp_path, capsys, maze_cells):
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    cfg = _write(tmp_path, "s.cfg", f"maze_file = {maze}\n")
    out = tmp_path / "fields"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    args = ["render", "--field", str(out / "current.csv"), "--out", str(tmp_path / "o.pgm"),
            "--style", "overlay"]
    if maze_cells is not None:
        other = _write(tmp_path, "other.maze", straight_channel_text(length_cells=maze_cells))
        args += ["--maze", other]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert "config error" in err and ("--maze" if maze_cells is None else "other.maze") in err
    assert not (tmp_path / "o.pgm").exists()


def _field_csv(tmp_path, edit=lambda rows: rows):
    """render on a 3 x 4 field CSV as write_field_csv writes it, with its
    data rows edited."""
    path = tmp_path / "phi.csv"
    field = solver.ScalarField(np.arange(12.0).reshape(3, 4), 0.5, solver.Quantity.POTENTIAL)
    render.write_field_csv(path, field)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    return ["render", "--field", str(path), "--out", str(tmp_path / "f.pgm")]


def _maze_file(tmp_path, text):
    """simulate on a maze_file config of this maze text (or bytes)."""
    maze = tmp_path / "bad.maze"
    maze.write_bytes(text if isinstance(text, bytes) else text.encode())
    cfg = _write(tmp_path, "maze.cfg", f"maze_file = {maze}\n")
    return ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]


def _config(tmp_path, text):
    (tmp_path / "bad.cfg").write_bytes(text)
    return ["simulate", "--config", str(tmp_path / "bad.cfg"), "--out", str(tmp_path / "out")]


def _report(tmp_path, report):
    (tmp_path / "bundle").mkdir()
    (tmp_path / "bundle" / "report.json").write_text(json.dumps(report))
    return ["compare", "--a", str(tmp_path / "bundle"), "--b", str(tmp_path / "bundle")]


def _overlay_on_undecodable_maze(tmp_path):
    (tmp_path / "bad.maze").write_bytes(b"S.T\xff\n")
    return _field_csv(tmp_path) + ["--style", "overlay", "--maze", str(tmp_path / "bad.maze")]


def _out_under_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    cfg = _write(tmp_path, "sym.cfg", SYM_CFG)
    return ["generate", "--config", cfg, "--out", str(tmp_path / "file" / "sym.maze")]


# Each malformed input, as the arguments of a command that reads it, and a
# piece of the error it gets.
_MALFORMED = {
    "csv-duplicated-row": (lambda t: _field_csv(t, lambda rows: rows[:1] * 2 + rows[2:]), "grid"),
    "csv-missing-column": (
        lambda t: _field_csv(t, lambda rows: [r for r in rows if not r.startswith("0.75,")]),
        "grid",
    ),
    "csv-missing-top-row": (lambda t: _field_csv(t, lambda rows: rows[4:]), "grid"),
    "maze-tab-on-separator": (lambda t: _maze_file(t, "voltage = 1\n\n\t\nS.T\n"), "tabs"),
    "maze-tab-below-first-row": (lambda t: _maze_file(t, "S.T\n.\t.\n"), "tabs"),
    "maze-blank-line-in-grid": (lambda t: _maze_file(t, "S.T\n\n...\n"), "blank line"),
    "maze-no-grid": (lambda t: _maze_file(t, "voltage = 1\n\n"), "no grid block"),
    "maze-not-utf8": (lambda t: _maze_file(t, b"S.T\xff\n"), "decode"),
    "render-maze-not-utf8": (_overlay_on_undecodable_maze, "decode"),
    "config-line-without-equals": (lambda t: _config(t, b"generator ring\n"), "key = value"),
    "config-unknown-generator": (lambda t: _config(t, b"generator = spiral\n"), "generator"),
    "config-unknown-artifact": (
        lambda t: _config(t, b"generator = ring\nartifacts = report,movie\n"), "artifact"
    ),
    "config-not-utf8": (lambda t: _config(t, b"generator = ring\n# \xff\n"), "decode"),
    "config-is-a-directory": (
        lambda t: ["simulate", "--config", str(t), "--out", str(t / "out")], "directory"
    ),
    "report-empty-sections": (
        lambda t: _report(t, {"corner_force": {}, "trajectory": {}}), "corner_force.max"
    ),
    "report-string-max-per-ampere": (
        lambda t: _report(
            t,
            {"corner_force": {"max": 1.0, "max_per_ampere": "1.0"},
             "trajectory": {"termination": "reached"}},
        ),
        "corner_force.max_per_ampere",
    ),
    "out-under-a-file": (_out_under_a_file, "exists"),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_input_exit_four(tmp_path, capsys, case):
    """Every input the commands cannot read is a config error: exit 4 and
    one line on stderr, with no traceback and nothing written."""
    make, piece = _MALFORMED[case]
    args = make(tmp_path)
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert piece in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "f.pgm").exists()


def test_force_source_key_is_unknown_exit_four(tmp_path, capsys):
    """The droplet has one force, the disk mean of J; the key that once
    chose another is an unknown key like any other."""
    cfg = _write(tmp_path, "f.cfg", SYM_CFG + "force_source = disk_mean_j\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "unknown config key 'force_source'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_starts_outside_a_sealed_source_pocket(tmp_path):
    """Positive cells in a room that no route leaves do not stop a
    solvable maze: the droplet starts in the channel to the target."""
    maze = _write(tmp_path, "pockets.maze", sealed_source_pocket_text())
    cfg = _write(tmp_path, "pockets.cfg", f"maze_file = {maze}\nstatic_threshold = 0\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["trajectory"]["termination"] == "reached_target"


def test_simulate_configs_sharing_a_stem_exit_four(tmp_path, capsys):
    """Under --out, two configs named x.cfg would both write out/x, the
    second bundle over the first: nothing runs."""
    maze = _write(tmp_path, "straight.maze", straight_channel_text())
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_a = _write(tmp_path / "a", "x.cfg", f"maze_file = {maze}\n")
    cfg_b = _write(tmp_path / "b", "x.cfg", SYM_CFG)
    code = main(["simulate", "--config", cfg_a, cfg_b, "--out", str(tmp_path / "out")])
    assert code == 4
    assert "['x', 'x'] share a file stem" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_configs_sharing_an_out_key_exit_four(tmp_path, capsys):
    """Without --out, two configs whose `out` keys name one directory
    would write the second bundle over the first: nothing runs."""
    shared = tmp_path / "same"
    cfg_a = _write(tmp_path, "p1.cfg", SYM_CFG + f"out = {shared}\n")
    cfg_b = _write(tmp_path, "p2.cfg", SYM_CFG.replace("len_b_mm = 40", "len_b_mm = 42")
                   + f"out = {tmp_path}/./same\n")
    assert main(["simulate", "--config", cfg_a, cfg_b]) == 4
    assert f"{cfg_a} and {cfg_b} share the output directory" in capsys.readouterr().err
    assert not shared.exists()


def test_simulate_multiple_configs(tmp_path):
    maze = _write(tmp_path, "straight.maze", straight_channel_text(length_cells=120))
    cfg1 = _write(tmp_path, "one.cfg", f"maze_file = {maze}\nstatic_threshold = 0\n")
    cfg2 = _write(tmp_path, "two.cfg", SYM_CFG)
    code = main(["simulate", "--config", cfg1, cfg2, "--out", str(tmp_path / "batch")])
    assert code == 2  # worst outcome wins: one run locked
    assert (tmp_path / "batch" / "one" / "report.json").exists()
    assert (tmp_path / "batch" / "two" / "report.json").exists()


ROUTE_FUNCTIONS = (oracle.segment_corridors, oracle.lee_label, oracle.trace_route_streamline)
FIELD_WRITERS = (render.write_field_csv, render.render_field)
# potential.csv and current.csv, and joule.pgm.
ONE_MAZE_S_FIELD_WRITES = {"write_field_csv": 2, "render_field": 1}
FIELD_FILES = ("potential.csv", "potential.pgm", "current.csv", "joule.pgm")


def _bundle(directory: Path) -> dict:
    files = {p.name: p.read_bytes() for p in directory.iterdir()}
    report = json.loads(files["report.json"])
    del report["timestamp"]
    files["report.json"] = report
    return files


def test_simulate_batch_sharing_a_maze_solves_and_routes_it_once(tmp_path, monkeypatch):
    """Four configs on one maze, differing in the droplet and its start, solve
    and route the maze once, scan its corners and write its field files
    once, and write the bytes each writes alone."""
    droplets = [
        "start = axis",
        "start = axis\ndt = 0.003",
        "start = axis\nnoise_amplitude = 7e-4\nnoise_seed = 3",
        "start = auto\nradius_mm = 1.2",
    ]
    maze = SYM_CFG.replace("len_b_mm = 40", "len_b_mm = 42")
    configs = [
        _write(tmp_path, f"case{i}.cfg", f"{maze.replace('start = axis', d)}max_steps = 800\n")
        for i, d in enumerate(droplets)
    ]
    calls = count_calls(monkeypatch, solver.compute_fields, *ROUTE_FUNCTIONS,
                        scenario.corner_force_stats, *FIELD_WRITERS)
    batch_code = main(["simulate", "--config", *configs, "--out", str(tmp_path / "batch")])
    assert calls == {**{name: 1 for name in
                        ("compute_fields", "segment_corridors", "lee_label",
                         "trace_route_streamline", "corner_force_stats")},
                     **ONE_MAZE_S_FIELD_WRITES}
    codes = []
    for cfg in configs:
        scenario._forget_solved_maze()
        out = tmp_path / "cold" / Path(cfg).stem
        codes.append(main(["simulate", "--config", cfg, "--out", str(out)]))
    assert batch_code == max(codes)
    bundles = {Path(c).stem: _bundle(tmp_path / "batch" / Path(c).stem) for c in configs}
    for stem, bundle in bundles.items():
        assert bundle == _bundle(tmp_path / "cold" / stem), stem
    assert len({b["trajectory.csv"] for b in bundles.values()}) == len(configs)


def test_solve_runs_no_route_function(tmp_path, monkeypatch):
    """`solve` leaves the route alone; an `oracle` run on the same maze then
    routes it without solving it again."""
    cfg = _write(tmp_path, "sym.cfg", SYM_CFG)
    calls = count_calls(monkeypatch, solver.compute_fields, *ROUTE_FUNCTIONS)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 0
    assert calls == {"compute_fields": 1}
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "oracle")]) == 0
    assert calls == {"compute_fields": 1, "segment_corridors": 1, "lee_label": 1,
                     "trace_route_streamline": 1}


# A bifurcation maze no other test solves, with a short droplet run.
_FILES_CFG = SYM_CFG.replace("len_b_mm = 40", "len_b_mm = 44") + "max_steps = 800\n"


@pytest.mark.parametrize("source", ["changed", "touched", "deleted", "same-path"])
def test_a_field_file_source_not_intact_is_written_afresh(tmp_path, monkeypatch, source):
    """A later bundle on a maze copies the field files of the first only
    while each keeps its size and mtime. One that changed, was touched or
    deleted, or is the destination itself is written afresh, with the bytes
    of a cold run."""
    first = _write(tmp_path, "first.cfg", _FILES_CFG)
    second = _write(tmp_path, "second.cfg", _FILES_CFG.replace("start = axis", "start = auto"))
    scenario._forget_solved_maze()
    calls = count_calls(monkeypatch, *FIELD_WRITERS)
    src = tmp_path / "first"
    main(["simulate", "--config", first, "--out", str(src)])
    assert calls == ONE_MAZE_S_FIELD_WRITES
    dest = tmp_path / "second"
    for name in FIELD_FILES:
        st = (src / name).stat()
        if source == "changed":  # other bytes and size, the same mtime
            (src / name).write_bytes(b"not a field file")
            os.utime(src / name, ns=(st.st_atime_ns, st.st_mtime_ns))
        elif source == "touched":  # the same bytes, another mtime
            os.utime(src / name, ns=(st.st_atime_ns, st.st_mtime_ns - 10**9))
    if source == "deleted":
        shutil.rmtree(src)
    elif source == "same-path":
        dest = src
    main(["simulate", "--config", second, "--out", str(dest)])
    assert calls == {name: 2 * n for name, n in ONE_MAZE_S_FIELD_WRITES.items()}
    scenario._forget_solved_maze()
    main(["simulate", "--config", second, "--out", str(tmp_path / "cold")])
    for name in FIELD_FILES:
        assert (dest / name).read_bytes() == (tmp_path / "cold" / name).read_bytes(), name


def test_solve_then_simulate_on_one_maze_copies_the_field_files(tmp_path, monkeypatch):
    """`simulate` after `solve` in one process copies the field files solve
    wrote, and its bundle has the bytes of a cold run."""
    cfg = _write(tmp_path, "sym.cfg", _FILES_CFG)
    scenario._forget_solved_maze()
    calls = count_calls(monkeypatch, *FIELD_WRITERS)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 0
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")])
    assert calls == ONE_MAZE_S_FIELD_WRITES
    scenario._forget_solved_maze()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "cold")]) == code
    assert _bundle(tmp_path / "sim") == _bundle(tmp_path / "cold")
    for name in FIELD_FILES:
        assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "solve" / name).read_bytes()


def test_one_process_running_solve_then_simulate_matches_separate_processes(tmp_path):
    """main builds its parser once per process and reuses it: solve then
    simulate in one process exit with the codes, and write the bytes, that
    each command gives in an interpreter of its own."""
    cfg = _write(tmp_path, "sym.cfg", _FILES_CFG)
    commands = [["solve", "--config", cfg], ["simulate", "--config", cfg]]
    scenario._forget_solved_maze()
    together = [main([*c, "--out", str(tmp_path / "one" / c[0])]) for c in commands]
    assert cli.build_parser() is cli.build_parser()
    apart = [
        run_cli([*c, "--out", str(tmp_path / "apart" / c[0])], blas_threads=1).returncode
        for c in commands
    ]
    assert together == apart == [0, 3]  # the run stops at max_steps
    for command, _, _ in commands:
        one, own = tmp_path / "one" / command, tmp_path / "apart" / command
        assert sorted(p.name for p in one.iterdir()) == sorted(p.name for p in own.iterdir())
        for p in one.iterdir():
            assert bundle_bytes(p) == bundle_bytes(own / p.name), p.name
