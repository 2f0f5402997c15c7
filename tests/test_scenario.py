import dataclasses
import inspect
import json
import math
import re
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import dropmaze as dm
from dropmaze import generators, oracle, scenario, solver
from dropmaze.dynamics import DynamicsParams, Termination, Trajectory
from dropmaze.maze import HEADER_FIELDS
from dropmaze.scenario import (
    ConfigError,
    ScenarioConfig,
    UnsolvableMazeError,
    compare_bundles,
    corner_force_stats,
    export_bundle,
    load_config,
    parse_config,
    prepare_fields,
    run_and_export,
    run_scenario,
    write_trajectory_csv,
)

from conftest import CONFIGS, RING_DYNAMICS, count_calls, ring_config, straight_channel_text
from oracles import brute_force_corner_force, write_trajectory_csv_by_row

BUNDLE_FILES = {
    "report.json",
    "potential.csv",
    "potential.pgm",
    "current.csv",
    "joule.pgm",
    "trajectory.csv",
    "path.csv",
    "comparison.json",
}


def test_parse_config_full():
    cfg = parse_config(
        """
        # demo scenario
        generator = ring
        rings = 2
        gaps_per_ring = 1,1
        diameter_mm = 70
        channel_width_mm = 4
        seed = 3
        tol = 1e-10
        mobility = 5000
        static_threshold = 1.5e-3
        noise_seed = 7
        artifacts = report,fields
        out = somewhere
        """
    )
    assert cfg.generator == "ring"
    assert cfg.seed == 3
    assert cfg.tol == 1e-10
    assert cfg.dynamics.mobility == 5000
    assert cfg.dynamics.noise_seed == 7
    assert cfg.artifacts == ("report", "fields")
    assert cfg.out_dir == "somewhere"


def _readme_config_keys():
    """The key names in README's "Scenario configs" bullet list: each
    backquoted item up to its `=`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Scenario configs\n", 1)[1]
    bullets = section[section.index("\n* "):].split("\n\n", 1)[0]
    return {item.split("=")[0].strip() for item in re.findall(r"`([^`]+)`", bullets)}


def test_readme_lists_exactly_the_config_keys():
    accepted = set(scenario._CONFIG_KEYS) | set(scenario._DYNAMICS_KEYS)
    assert _readme_config_keys() == accepted


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("generator = ring\nwobble = 3")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("generator = ring\nrings = two")


def test_parse_config_requires_one_source(tmp_path):
    with pytest.raises(ConfigError, match="exactly one maze source"):
        parse_config("rings = 2")
    with pytest.raises(ConfigError, match="exactly one maze source"):
        parse_config("generator = ring\nmaze_file = x.maze")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("generator = ring\ngenerator = ring")


@pytest.mark.parametrize("name", ["cell_size_mm", "tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.0])
def test_config_rejects_a_step_that_is_not_finite_and_positive(name, value):
    """The Python API takes floats that parse_config never produces."""
    with pytest.raises(ConfigError, match=f"{name} must be a finite positive number"):
        ScenarioConfig(generator="bifurcation", len_a_mm=20.0, len_b_mm=24.0, **{name: value})


def _non_finite_cases():
    """(constructor, error, field) params for every float field of the
    droplet parameters, the maze and the scenario config."""
    dynamics = ("mobility", "static_threshold", "dt", "lock_epsilon_mm", "force_gain",
                "radius_mm", "release_time", "stall_fraction", "noise_amplitude")
    maze = ("cell_size", "sigma_electrolyte", "sigma_wall", "sigma_coating", "applied_voltage")
    config = ("diameter_mm", "channel_width_mm", "wall_mm", "exit_angle_deg", "len_a_mm",
              "len_b_mm", "cell_size_mm", "sigma_electrolyte", "sigma_wall", "sigma_coating",
              "voltage", "tol")
    spec = dm.parse_maze("S...T")
    base = dict(generator="bifurcation", len_a_mm=20.0, len_b_mm=24.0)
    for make, error, names in (
        (DynamicsParams, ValueError, dynamics),
        (lambda **kw: dataclasses.replace(spec, **kw), dm.MazeError, maze),
        (lambda **kw: ScenarioConfig(**{**base, **kw}), ConfigError, config),
    ):
        for name in names:
            yield pytest.param(make, error, name, id=f"{error.__name__}-{name}")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, error, name", _non_finite_cases())
def test_python_api_rejects_non_finite_floats(make, error, name, value):
    """The dataclasses refuse NaN and the infinities in every float field,
    which config and maze files never produce: each names the field."""
    with pytest.raises(error, match=name):
        make(**{name: value})


@pytest.mark.parametrize("name", ["ring", "bifurcation"])
def test_generator_keys_are_its_keyword_parameters(name):
    """A generator reads the config keys named as its keyword parameters,
    each a config field."""
    parameters = inspect.signature(getattr(generators, f"generate_{name}_maze")).parameters
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    assert all(p.kind in keyword for p in parameters.values())
    assert scenario._GENERATOR_KEYS[name] == tuple(parameters)
    assert set(parameters) <= {f.name for f in dataclasses.fields(ScenarioConfig)}


# A value other than the default for every accepted key.
_NON_DEFAULT = {
    "rings": "3", "gaps_per_ring": "2, 1,1", "diameter_mm": "90", "channel_width_mm": "5",
    "wall_mm": "2.5", "exit_angle_deg": "30", "seed": "7", "len_a_mm": "30", "len_b_mm": "50",
    "cell_size_mm": "0.25", "sigma_electrolyte": "20", "sigma_wall": "0.5",
    "sigma_coating": "2e5", "voltage": "3", "coat_corners": "yes", "tol": "1e-8",
    "max_iter": "500", "start": "axis", "artifacts": "report, trace", "out": "elsewhere",
    "mobility": "5000", "static_threshold": "1e-3", "dt": "1e-4", "max_steps": "1000",
    "lock_window": "100", "lock_epsilon_mm": "0.1", "force_gain": "2", "radius_mm": "1",
    "release_time": "0.5", "stall_fraction": "0.5", "noise_amplitude": "0.1",
    "noise_seed": "3",
}


def _default(f: dataclasses.Field):
    return f.default_factory() if f.default is dataclasses.MISSING else f.default


def test_every_config_field_has_a_key():
    """Configs that set every key their maze source reads to a non-default
    value parse into configs that, between them, differ from the defaults
    in every field, the droplet's included."""
    changed = set()
    for source in ("maze_file = a.maze", "generator = ring", "generator = bifurcation"):
        unread = scenario._unread_keys(parse_config(source))[1]
        lines = [source] + [f"{k} = {v}" for k, v in _NON_DEFAULT.items() if k not in unread]
        cfg = parse_config("\n".join(lines))
        for obj in (cfg, cfg.dynamics):
            changed |= {
                f.name for f in dataclasses.fields(obj) if getattr(obj, f.name) != _default(f)
            }
    every = {f.name for cls in (ScenarioConfig, DynamicsParams) for f in dataclasses.fields(cls)}
    assert changed == every
    accepted = set(scenario._CONFIG_KEYS) | set(scenario._DYNAMICS_KEYS)
    assert set(_NON_DEFAULT) | {"maze_file", "generator"} == accepted


def test_unsolvable_maze_raises(tmp_path):
    maze = tmp_path / "blocked.maze"
    maze.write_text("S.#.T")
    cfg = ScenarioConfig(maze_file=str(maze))
    with pytest.raises(UnsolvableMazeError):
        run_scenario(cfg)


def test_straight_channel_scenario(tmp_path):
    # long enough that stopping disk-radius short of the electrode is < 5%
    maze = tmp_path / "straight.maze"
    maze.write_text(straight_channel_text(length_cells=120))
    cfg = ScenarioConfig(maze_file=str(maze), dynamics=DynamicsParams(static_threshold=0.0))
    result = run_scenario(cfg)
    assert result.exit_code == 0
    assert result.trajectory.termination is Termination.REACHED_TARGET
    assert result.report["comparison"]["length_ratio"] == pytest.approx(1.0, abs=0.05)
    assert result.report["comparison"]["corridor_sequence_equal"]


def test_symmetric_bifurcation_scenario_locks():
    cfg = ScenarioConfig(
        generator="bifurcation", len_a_mm=40.0, len_b_mm=40.0, channel_width_mm=4.0,
        start="axis",
    )
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert result.trajectory.termination is Termination.LOCKED
    assert result.report["trajectory"]["lock_parameter_sensitive"] is False  # geometric lock


def test_paper_lengths_lock_is_parameter_sensitive():
    cfg = ScenarioConfig(
        generator="bifurcation", len_a_mm=38.0, len_b_mm=42.0, channel_width_mm=4.0,
        start="axis",
    )
    result = run_scenario(cfg)
    assert result.trajectory.termination is Termination.LOCKED
    assert result.report["trajectory"]["lock_parameter_sensitive"] is True


def test_export_bundle_file_set(tmp_path, ring_scenario):
    written = export_bundle(ring_scenario, tmp_path)
    assert {p.name for p in written} == BUNDLE_FILES
    assert {p.name for p in tmp_path.iterdir()} == BUNDLE_FILES


def test_export_bundle_trace_artifact(tmp_path, ring_scenario):
    import dataclasses

    cfg = dataclasses.replace(ring_scenario.config, artifacts=("trajectory", "trace"))
    result = dataclasses.replace(ring_scenario, config=cfg)
    written = export_bundle(result, tmp_path)
    assert {p.name for p in written} == {"trajectory.csv", "trace.ppm"}


def test_rerun_reports_identical_except_timestamp(tmp_path):
    cfg = ring_config(out_dir=str(tmp_path / "a"))
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    ra, rb = dict(a.report), dict(b.report)
    assert ra.pop("timestamp") != ""
    assert rb.pop("timestamp") != ""
    assert ra == rb


def test_report_is_json_serializable(ring_scenario):
    """The report holds JSON types alone, so it reads back as itself."""
    report = ring_scenario.report
    assert json.loads(json.dumps(report, sort_keys=True)) == report
    assert "trajectory" in report


def test_trajectory_csv_schema(tmp_path, ring_scenario):
    export_bundle(ring_scenario, tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t_s,x_mm,y_mm,speed_mm_s,force_mag"
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    t = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(t, t[1:]))


# Consecutive samples that differ only in the sign of a zero speed or
# force, or in one column (the force once by one ulp), between repeats.
_SAMPLES = [
    (1.0, 2.0, 0.0, 0.0),
    (1.0, 2.0, -0.0, 0.0),
    (1.0, 2.0, -0.0, 0.0),
    (1.0, 2.0, -0.0, -0.0),
    (1.0, 2.0, -0.0, -0.0),
    (1.5, 2.0, -0.0, -0.0),
    (1.5, 2.5, -0.0, -0.0),
    (1.5, 2.5, 3.0, -0.0),
    (1.5, 2.5, 3.0, 4.0),
    (1.5, 2.5, 3.0, 4.0),
    (1.5, 2.5, 3.0, 4.000000000000001),
    (1.5, 2.5, 3.0, 4.0),
]


def _trajectory(kind) -> Trajectory:
    if kind == "samples":
        xs, ys, speeds, forces = (np.array(c) for c in zip(*_SAMPLES))
        times = 0.1 * np.arange(len(xs))
        return Trajectory(times, xs, ys, speeds, forces, Termination.LOCKED, 1.0, 0.1, 1.0, (2, 4))
    text = (CONFIGS / "bifurcation_lock.cfg").read_text()
    if kind == "noisy":
        text += "noise_amplitude = 7e-4\nnoise_seed = 3\n"
    return run_scenario(parse_config(text)).trajectory


@pytest.mark.parametrize("kind", ["locked", "noisy", "samples"])
def test_trajectory_csv_bytes_match_row_by_row_writer(tmp_path, kind):
    traj = _trajectory(kind)
    write_trajectory_csv(tmp_path / "new.csv", traj)
    write_trajectory_csv_by_row(tmp_path / "old.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    if kind == "locked":  # the pinned droplet repeats its samples
        state = np.column_stack([traj.xs, traj.ys, traj.speeds, traj.forces])
        assert (state[1:] == state[:-1]).all(axis=1).sum() > len(traj) // 2


def test_path_csv_schema(tmp_path, ring_scenario):
    export_bundle(ring_scenario, tmp_path)
    lines = (tmp_path / "path.csv").read_text().splitlines()
    assert lines[0] == "ix,iy,x_mm,y_mm"
    first = lines[1].split(",")
    assert int(first[0]) >= 0 and float(first[2]) > 0


def test_exported_maze_round_trips_through_parser(tmp_path, ring_maze):
    from dropmaze.maze import emit_maze, parse_maze

    p = tmp_path / "ring.maze"
    p.write_text(emit_maze(ring_maze))
    assert parse_maze(p.read_text()) == ring_maze


def test_corner_stats_reduced_when_coated():
    ins = run_scenario(ring_config())
    coat = run_scenario(ring_config(coat_corners=True))
    assert (
        coat.report["corner_force"]["max_per_ampere"]
        < ins.report["corner_force"]["max_per_ampere"]
    )
    diff = compare_bundles(ins.report, coat.report)
    assert diff["corner_force_reduced"] is True
    assert diff["reduction_factor"] > 1.0


def test_scenario_echoes_config(ring_scenario):
    echo = ring_scenario.report["config"]
    assert echo["generator"] == "ring"
    assert echo["seed"] == ring_scenario.config.seed
    assert echo["dynamics"]["static_threshold"] == pytest.approx(1.9e-3)
    assert not {"maze_file", "len_a_mm", "len_b_mm"} & set(echo)


def test_maze_file_echo_leaves_out_the_keys_its_header_sets(tmp_path):
    """A maze file's header sets the voltage and the cell size, so the
    echo of a run on it shows neither, nor any generator key: a 10 V
    maze does not report the 5 V default."""
    maze = tmp_path / "straight.maze"
    maze.write_text(straight_channel_text(length_cells=30, voltage=10.0))
    report = run_scenario(ScenarioConfig(maze_file=str(maze))).report
    echo = report["config"]
    assert echo["maze_file"] == str(maze)
    unread = {"generator", "rings", "seed", "voltage", "cell_size_mm", "sigma_electrolyte"}
    assert not unread & set(echo)
    assert {"tol", "max_iter", "dynamics", "start"} <= set(echo)


def test_default_physics_agree_between_maze_files_and_generators(tmp_path):
    """A maze file without a header and a generator config without physics
    keys build mazes with the same cell size, conductivities and voltage."""
    maze = tmp_path / "bare.maze"
    maze.write_text("S.T\n")
    built = [
        scenario.build_maze(ScenarioConfig(maze_file=str(maze))),
        scenario.build_maze(ScenarioConfig(generator="bifurcation")),
    ]
    file_physics, generated_physics = (
        [(name, repr(getattr(m, name))) for name in HEADER_FIELDS.values()] for m in built
    )
    assert file_physics == generated_physics


def test_report_counts_the_unknowns_the_solve_iterates_over(ring_scenario):
    """Every channel cell of the ring is linked to an electrode, so the
    unknowns are the channel cells less the pinned ones."""
    maze = ring_scenario.maze
    pinned = len(maze.positive) + len(maze.negative)
    assert ring_scenario.report["solve"]["unknowns"] == int(maze.channel_mask().sum()) - pinned


@pytest.mark.parametrize("start", ["auto", "axis", "6.0,13.25"])
def test_run_scenario_computes_each_analysis_once(start, monkeypatch):
    """A run with the default radius and time step labels the maze,
    segments it, thins its channel and extracts the Lee path once each,
    whichever way its start is given."""
    calls = count_calls(
        monkeypatch, oracle.lee_label, oracle.segment_corridors, oracle.thin_mask,
        oracle.extract_path,
    )
    cfg = ScenarioConfig(
        generator="bifurcation", len_a_mm=40.0, len_b_mm=40.0, start=start,
        dynamics=DynamicsParams(max_steps=200),
    )
    result = run_scenario(cfg)
    assert cfg.dynamics.radius_mm == 0 and cfg.dynamics.dt == 0
    assert result.trajectory.radius_mm == 0.375 * result.solved.seg.width_cells * 0.5
    assert len(result.trajectory) > 1
    assert calls == {"lee_label": 1, "segment_corridors": 1, "thin_mask": 1, "extract_path": 1}


def _corner_case(name):
    if name == "straight":
        return dm.parse_maze(straight_channel_text()), RING_DYNAMICS
    if name == "bifurcation_symmetric":
        return dm.generate_bifurcation_maze(40.0, 40.0, 4.0), DynamicsParams()
    cell = 0.3 if name == "ring_0.3mm" else 0.5
    maze = dm.generate_ring_maze(2, [1, 1], 70.0, 4.0, 1, cell_size_mm=cell)
    if name == "ring_coated":
        maze = dm.coat_sharp_corners(maze)
    return maze, RING_DYNAMICS


@pytest.mark.parametrize(
    "name",
    ["ring_m2", "ring_coated", "straight", "bifurcation_symmetric", "ring_rough", "ring_0.3mm"],
)
def test_corner_force_stats_equals_probe_by_probe_scan(name, monkeypatch):
    """Summing all probes at once finds the same float as integrating
    every probe on its own with disk_integrate, which corner_force_stats
    then calls once, on the first probe that holds the maximum."""
    maze, params = _corner_case(name)
    fields = _corner_fields(name, maze)
    seg = dm.segment_corridors(maze)
    evaluated = []

    def counted(*args, **kwargs):
        evaluated.append(args[1])
        return dm.disk_integrate(*args, **kwargs)

    monkeypatch.setattr(scenario, "disk_integrate", counted)
    stats = corner_force_stats(maze, fields, params, seg)
    width_mm = seg.width_cells * maze.cell_size
    sums = dm.RowSums(fields.j, maze.wall_mask())
    want, probes = brute_force_corner_force(
        maze, sums, width_mm, params.force_gain, dm.disk_integrate
    )
    assert stats["max"] == want
    corners = dm.convex_corner_cells(maze)
    near = scenario._near_corners(maze.channel_mask(), corners, int(seg.width_cells))
    iys, ixs = np.nonzero(near)
    assert list(zip(ixs.tolist(), iys.tolist())) == probes
    if name == "straight":
        assert (stats["n_corners"], len(probes), stats["max"]) == (0, 0, 0.0)
    else:
        assert len(evaluated) == 1
        (x, y), h = evaluated[0], maze.cell_size
        assert (int(x // h), int(y // h)) in probes

        def force(center):
            return math.hypot(*dm.disk_integrate(sums, center, width_mm / 4, params.force_gain))

        assert force((x, y)) == want
    if name == "bifurcation_symmetric":
        # The mirror image of the probe, in a later row, ties with it.
        assert maze.ny * h - y > y and force((x, maze.ny * h - y)) == want


def _corner_fields(name, maze):
    """The fields of a _corner_case maze, with the case's changes to J."""
    fields = dm.compute_fields(maze)
    if name == "bifurcation_symmetric":
        # The solve is mirror-symmetric only to about 1e-9; make the field
        # exactly so, which ties the force maxima of mirrored probes.
        j = fields.j
        mirrored = dm.VectorField(j.vx + j.vx[::-1], j.vy - j.vy[::-1], j.cell_size, j.quantity)
        fields = dataclasses.replace(fields, j=mirrored)
    if name == "ring_rough":
        # J times a seeded per-cell factor over six decades: neighbouring
        # terms of a disk sum differ by up to 1e6, far from a smooth field.
        j = fields.j
        scale = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, j.vx.shape)
        rough = dm.VectorField(j.vx * scale, j.vy * scale, j.cell_size, j.quantity)
        fields = dataclasses.replace(fields, j=rough)
    return fields


@pytest.mark.parametrize("name", ["ring_m2", "bifurcation_symmetric", "ring_rough"])
def test_corner_force_stats_do_not_depend_on_the_chunk(name, monkeypatch):
    """Probes summed three at a time give the statistics, and the one
    disk_integrate call's centre, that one chunk of every probe gives:
    among tied maxima in different chunks the first still wins."""
    maze, params = _corner_case(name)
    fields, seg = _corner_fields(name, maze), dm.segment_corridors(maze)
    runs = []
    for chunk in (3, 10**9):
        evaluated = []

        def counted(*args, **kwargs):
            evaluated.append(args[1])
            return dm.disk_integrate(*args, **kwargs)

        monkeypatch.setattr(scenario, "disk_integrate", counted)
        monkeypatch.setattr(scenario, "_PROBE_CHUNK", chunk)
        runs.append((corner_force_stats(maze, fields, params, seg), evaluated))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 1


def test_corner_force_stats_hold_the_row_sums_and_little_more():
    """corner_force_stats on ring_m2 at 0.25 mm cells (280 x 280, 11 167
    probes) allocates at most 2.5 float64 grids above what it holds on
    entry: the row sums of J take two, and the probes are summed in
    chunks, so that no array or list grows with the probe count. All
    probes at once took 4.8 grids."""
    cfg = dataclasses.replace(load_config(CONFIGS / "ring_m2.cfg"), cell_size_mm=0.25)
    solved = prepare_fields(cfg)
    maze, seg = solved.maze, solved.seg
    tracemalloc.start()
    try:
        stats = corner_force_stats(maze, solved.fields, cfg.dynamics, seg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats["max"] > 0
    assert peak <= 2.5 * maze.ny * maze.nx * 8


# A bifurcation maze small enough for the maze stage's tests to solve it
# many times.
_STAGE_BASE = dict(generator="bifurcation", len_a_mm=20.0, len_b_mm=24.0)


@pytest.mark.parametrize(
    "change",
    [
        {"tol": 1e-10},
        {"max_iter": 100_000},
        {"voltage": 4.0},
        {"sigma_electrolyte": 12.0},
        {"sigma_wall": 1e-3},
        {"sigma_wall": -0.0},
        {"sigma_coating": 2e5},
        {"cell_size_mm": 0.25},
        {"coat_corners": True},
    ],
    ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()),
)
def test_maze_stage_solves_again_when_the_maze_or_solve_changes(monkeypatch, change):
    """A config that repeats the last maze reuses its solve; one that changes
    the built maze or the solve's settings solves again, even where the
    change compares equal (-0.0 == 0.0)."""
    calls = count_calls(monkeypatch, solver.compute_fields)
    base = ScenarioConfig(**_STAGE_BASE)
    first = prepare_fields(base)
    assert prepare_fields(dataclasses.replace(base, start="auto", seed=7)) is first
    assert calls == {"compute_fields": 1}
    changed = prepare_fields(ScenarioConfig(**_STAGE_BASE, **change))
    assert calls == {"compute_fields": 2}
    if "sigma_wall" in change:
        want = change["sigma_wall"]
        assert math.copysign(1.0, changed.maze.sigma_wall) == math.copysign(1.0, want)


def test_corner_statistics_run_once_per_maze_and_force_gain(monkeypatch):
    """Runs on one maze share its corner statistics while their force gain
    is the same; another gain scans again, and reports what a cold run of
    its config reports."""
    base = ScenarioConfig(**_STAGE_BASE, start="axis", dynamics=DynamicsParams(max_steps=300))
    other_droplet = dataclasses.replace(
        base, dynamics=dataclasses.replace(base.dynamics, static_threshold=1.6e-3)
    )
    other_gain = dataclasses.replace(
        base, dynamics=dataclasses.replace(base.dynamics, force_gain=2.0)
    )
    scenario._forget_solved_maze()
    calls = count_calls(monkeypatch, corner_force_stats)
    first = run_scenario(base).report["corner_force"]
    second = run_scenario(other_droplet).report["corner_force"]
    assert second == first and second is not first
    assert calls == {"corner_force_stats": 1}
    gained = run_scenario(other_gain)
    assert calls == {"corner_force_stats": 2}
    assert gained.report["corner_force"]["max"] != first["max"]
    scenario._forget_solved_maze()
    assert run_scenario(other_gain).report["corner_force"] == gained.report["corner_force"]


def _walled_cell(text: str) -> str:
    """The maze text with one channel cell in the middle turned to wall."""
    lines = text.splitlines()
    row = len(lines) - 5
    lines[row] = lines[row][:20] + "#" + lines[row][21:]
    return "\n".join(lines) + "\n"


def _moved_electrode(text: str) -> str:
    """The maze text with one `S` cell moved a cell to the right: the same
    cell grid and header, another positive electrode."""
    lines = text.splitlines()
    row = len(lines) - 5
    assert lines[row].startswith("#S.")
    lines[row] = "#.S" + lines[row][3:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit", ["voltage", "cell", "electrode"])
def test_maze_stage_reads_the_maze_file_again(tmp_path, monkeypatch, edit):
    """New bytes in the same maze file are a new maze: a new header value,
    a new cell grid of the same shape, or an electrode cell moved."""
    text = straight_channel_text(length_cells=40)
    edited = {
        "voltage": straight_channel_text(length_cells=40, voltage=4.0),
        "cell": _walled_cell(text),
        "electrode": _moved_electrode(text),
    }[edit]
    maze_file = tmp_path / "straight.maze"
    maze_file.write_text(text)
    cfg = ScenarioConfig(maze_file=str(maze_file))
    calls = count_calls(monkeypatch, solver.compute_fields)
    prepare_fields(cfg)
    prepare_fields(cfg)
    maze_file.write_text(edited)
    solved = prepare_fields(cfg)
    assert calls == {"compute_fields": 2}
    assert solved.maze == dm.parse_maze(edited)
    assert solved.maze != dm.parse_maze(text)
    if edit == "electrode":
        assert np.array_equal(solved.maze.cells, dm.parse_maze(text).cells)


def test_maze_stage_drops_the_old_maze_before_solving_a_new_one(tmp_path, monkeypatch):
    """On a miss the old entry goes first, so two mazes' fields never live
    side by side; a failed solve leaves the stage empty."""
    old = weakref.ref(prepare_fields(ScenarioConfig(**_STAGE_BASE)).fields)
    alive_during_solve = []

    def solve(*args, **kwargs):
        alive_during_solve.append(old() is not None)
        return original(*args, **kwargs)

    original = solver.compute_fields
    monkeypatch.setattr(scenario, "compute_fields", solve)
    with pytest.raises(scenario.ConvergenceError):
        prepare_fields(ScenarioConfig(**_STAGE_BASE, max_iter=1))
    assert alive_during_solve == [False]
    prepare_fields(ScenarioConfig(**_STAGE_BASE))
    assert alive_during_solve == [False, False]


def test_a_run_peaks_below_ten_grids(tmp_path):
    """One run of ring_m2 at 0.25 mm cells (280 x 280) with its bundle,
    from an empty maze stage, allocates at most 10 float64 grids (6.27
    MB) under tracemalloc. The stage holds phi and J, and the route reads
    its currents from phi; Joule power is derived as joule.pgm is
    written, the solve's set-up keeps only the colour copies of its finer
    levels, and the corner probes are summed in chunks. Before those cuts
    a run took 12.6 grids."""
    cfg = dataclasses.replace(load_config(CONFIGS / "ring_m2.cfg"), cell_size_mm=0.25)
    scenario._forget_solved_maze()
    tracemalloc.start()
    try:
        result = run_and_export(cfg, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert (tmp_path / "joule.pgm").exists()
    assert peak <= 10 * result.maze.ny * result.maze.nx * 8


def _stage_arrays(result):
    fields, seg = result.fields, result.solved.seg
    ((_, stream, _),) = result.solved.branches
    return {
        "maze.cells": result.maze.cells,
        "fields.phi": fields.phi.values,
        "fields.j.vx": fields.j.vx,
        "fields.j.vy": fields.j.vy,
        "route.region_current": result.solved.route.region_current,
        "segmentation.region": seg.region,
        "segmentation.is_node": seg.is_node,
        "segmentation.skeleton": seg.skeleton,
        "streamline.points": stream.points,
    }


def test_reused_arrays_are_read_only():
    """The maze stage hands the same arrays to every run of a maze, so no
    caller can write into them."""
    arrays = _stage_arrays(run_scenario(ScenarioConfig(
        **_STAGE_BASE, dynamics=DynamicsParams(max_steps=50))))
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
        assert not arr.flags.writeable, name


def test_maze_stage_under_threads(tmp_path):
    """Threads that alternate between two mazes each get the fields and
    route of the maze they asked for."""
    mazes = {}
    for n in (30, 40):
        (tmp_path / f"{n}.maze").write_text(straight_channel_text(length_cells=n))
        mazes[n] = ScenarioConfig(maze_file=str(tmp_path / f"{n}.maze"))
    want = {}
    for n, cfg in mazes.items():
        scenario._forget_solved_maze()
        solved = prepare_fields(cfg)
        want[n] = (solved.maze, solved.fields.phi.values.tobytes(),
                   solved.branches[0][1].points.tobytes())
    errors = []

    def worker(offset):
        try:
            for i in range(12):
                n = (30, 40)[(i + offset) % 2]
                solved = prepare_fields(mazes[n])
                got = (solved.maze, solved.fields.phi.values.tobytes(),
                       solved.branches[0][1].points.tobytes())
                if got != want[n]:
                    errors.append((offset, i))
        except Exception as exc:  # reported below, with the thread's index
            errors.append((offset, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
