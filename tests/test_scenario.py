import dataclasses
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest

import dropmaze as dm
from dropmaze import oracle, scenario, solver
from dropmaze.dynamics import (
    DynamicsParams,
    ForceSource,
    Termination,
    disk_force_screen,
    select_force_field,
)
from dropmaze.scenario import (
    ConfigError,
    ScenarioConfig,
    UnsolvableMazeError,
    compare_bundles,
    corner_force_stats,
    export_bundle,
    parse_config,
    prepare_fields,
    run_scenario,
)

from conftest import RING_DYNAMICS, count_calls, ring_config, straight_channel_text
from oracles import brute_force_corner_force

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
        force_source = disk_mean_grad_speed_j
        artifacts = report,fields
        out = somewhere
        """
    )
    assert cfg.generator == "ring"
    assert cfg.seed == 3
    assert cfg.tol == 1e-10
    assert cfg.dynamics.mobility == 5000
    assert cfg.dynamics.force_source is dm.ForceSource.DISK_MEAN_GRAD_SPEED_J
    assert cfg.artifacts == ("report", "fields")
    assert cfg.out_dir == "somewhere"


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
    assert result.comparison.length_ratio == pytest.approx(1.0, abs=0.05)
    assert result.comparison.corridor_sequence_equal


def test_symmetric_bifurcation_scenario_locks():
    cfg = ScenarioConfig(
        generator="bifurcation", len_a_mm=40.0, len_b_mm=40.0, channel_width_mm=4.0,
        start="axis",
    )
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert result.trajectory.termination is Termination.LOCKED
    assert not result.lock_parameter_sensitive  # geometric lock


def test_paper_lengths_lock_is_parameter_sensitive():
    cfg = ScenarioConfig(
        generator="bifurcation", len_a_mm=38.0, len_b_mm=42.0, channel_width_mm=4.0,
        start="axis",
    )
    result = run_scenario(cfg)
    assert result.trajectory.termination is Termination.LOCKED
    assert result.lock_parameter_sensitive
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
    text = json.dumps(ring_scenario.report, sort_keys=True)
    assert "trajectory" in text


def test_trajectory_csv_schema(tmp_path, ring_scenario):
    export_bundle(ring_scenario, tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t_s,x_mm,y_mm,speed_mm_s,force_mag"
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    t = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(t, t[1:]))


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
    assert coat.corner_stats.max_force_per_ampere < ins.corner_stats.max_force_per_ampere
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


def test_report_counts_the_unknowns_the_solve_iterates_over(ring_scenario):
    """Every channel cell of the ring is linked to an electrode, so the
    unknowns are the channel cells less the pinned ones."""
    maze = ring_scenario.maze
    pinned = sum(len(e.cells) for e in maze.electrodes)
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
    assert result.trajectory.radius_mm == 0.375 * result.segmentation.width_cells * 0.5
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
    params = RING_DYNAMICS
    if name == "ring_grad_j":
        params = DynamicsParams(force_source=ForceSource.DISK_MEAN_GRAD_SPEED_J)
    return maze, params


@pytest.mark.parametrize(
    "name",
    ["ring_m2", "ring_coated", "straight", "bifurcation_symmetric", "ring_grad_j", "ring_0.3mm"],
)
def test_corner_force_stats_equals_probe_by_probe_scan(name, monkeypatch):
    """The screened scan finds the same float as integrating every probe,
    and integrates only the probes that can hold the maximum."""
    maze, params = _corner_case(name)
    fields = dm.compute_fields(maze)
    if name == "bifurcation_symmetric":
        # The solve is mirror-symmetric only to about 1e-9; make the field
        # exactly so, which ties the force maxima of mirrored probes.
        j = fields.j
        mirrored = dm.VectorField(j.vx + j.vx[::-1], j.vy - j.vy[::-1], j.cell_size, j.quantity)
        fields = dataclasses.replace(fields, j=mirrored)
    seg = dm.segment_corridors(maze)
    evaluated = []

    def counted(*args, **kwargs):
        evaluated.append(args[1])
        return dm.disk_integrate(*args, **kwargs)

    monkeypatch.setattr(scenario, "disk_integrate", counted)
    stats = corner_force_stats(maze, fields, params, seg)
    field = select_force_field(fields, params.force_source)
    width_mm = seg.width_cells * maze.cell_size
    want, probes = brute_force_corner_force(
        maze, field, width_mm, params.force_gain, dm.disk_integrate
    )
    assert stats.max_force == want
    corners = dm.convex_corner_cells(maze)
    near = scenario._near_corners(maze.channel_mask(), corners, maze.cell_size, width_mm)
    iys, ixs = np.nonzero(near)
    assert list(zip(ixs.tolist(), iys.tolist())) == probes
    if name == "straight":
        assert (stats.n_corners, len(probes), stats.max_force) == (0, 0, 0.0)
    else:
        assert 1 <= len(evaluated) < len(probes) / 100
    if name == "bifurcation_symmetric":
        assert len(evaluated) > 1  # mirror images tie within the rounding bound
        assert {round(y, 9) for _, y in evaluated} != {round(evaluated[0][1], 9)}


@pytest.mark.parametrize("cell_size_mm", [0.5, 0.3])
def test_disk_force_screen_is_within_its_bound(cell_size_mm):
    """Every screened probe lies within its bound of disk_integrate's value,
    and the bound is a rounding margin, far below the forces themselves.

    The radius is three cells, so the cells three columns or rows away sit
    on the disk's rim. Whether one counts is decided by the rounding of
    its centre's distance, which at 0.3 mm differs from probe to probe."""
    maze = dm.generate_ring_maze(2, [1, 1], 70.0, 4.0, 1, cell_size_mm=cell_size_mm)
    field = dm.compute_fields(maze).j
    wall = maze.wall_mask()
    h = maze.cell_size
    iys, ixs = np.nonzero(maze.channel_mask())
    radius = 3 * h
    screened, bound = disk_force_screen(field, (iys, ixs), radius, wall, 7.0)
    exact = np.array([
        math.hypot(*dm.disk_integrate(field, ((ix + 0.5) * h, (iy + 0.5) * h), radius, wall, 7.0))
        for iy, ix in zip(iys.tolist(), ixs.tolist())
    ])
    assert (np.abs(screened - exact) <= bound).all()
    assert (bound <= 1e-12 * screened.max()).all()


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


def _walled_cell(text: str) -> str:
    """The maze text with one channel cell in the middle turned to wall."""
    lines = text.splitlines()
    row = len(lines) - 5
    lines[row] = lines[row][:20] + "#" + lines[row][21:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit", ["voltage", "cell"])
def test_maze_stage_reads_the_maze_file_again(tmp_path, monkeypatch, edit):
    """New bytes in the same maze file are a new maze: a new header value,
    or a new cell grid of the same shape."""
    text = straight_channel_text(length_cells=40)
    edited = straight_channel_text(length_cells=40, voltage=4.0) if edit == "voltage" else (
        _walled_cell(text))
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


def _stage_arrays(result):
    fields, seg = result.fields, result.segmentation
    (stream,) = oracle.trace_route_streamline(fields.j, result.maze, seg=seg)
    return {
        "maze.cells": result.maze.cells,
        "fields.sigma": fields.sigma,
        "fields.phi": fields.phi.values,
        "fields.j.vx": fields.j.vx,
        "fields.j.vy": fields.j.vy,
        "fields.j.face_flux_x": fields.j.face_flux_x,
        "fields.j.face_flux_y": fields.j.face_flux_y,
        "fields.grad_j.vx": fields.grad_j.vx,
        "fields.joule": fields.joule.values,
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
                   solved.route().streams[0].points.tobytes())
    errors = []

    def worker(offset):
        try:
            for i in range(12):
                n = (30, 40)[(i + offset) % 2]
                solved = prepare_fields(mazes[n])
                got = (solved.maze, solved.fields.phi.values.tobytes(),
                       solved.route().streams[0].points.tobytes())
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
