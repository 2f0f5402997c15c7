"""Scenario harness: wire the solver, droplet, and oracle into reproducible
runs driven by a flat `key = value` config file, with stable file outputs.

A re-run of the same config produces byte-identical files except for the
timestamp field inside report.json.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from .dynamics import (
    DynamicsParams,
    ForceSource,
    Termination,
    Trajectory,
    disk_force_screen,
    disk_integrate,
    droplet_radius_mm,
    find_start,
    select_force_field,
    simulate,
    velocity_profile,
)
from .generators import generate_bifurcation_maze, generate_ring_maze
from .maze import (
    MazeSpec,
    coat_sharp_corners,
    convex_corner_cells,
    parse_maze,
    validate_and_components,
)
from .oracle import (
    ComparisonMetrics,
    CorridorSegmentation,
    LeeLabels,
    Path as OraclePath,
    compare_trajectory,
    extract_path,
    lee_label,
    region_sequence,
    segment_corridors,
    trace_route_streamline,
)
from .render import (
    render_field,
    render_trajectory_overlay,
    write_field_csv,
    write_pgm,
    normalize_u8,
)
from .solver import FieldBundle, compute_fields

DEFAULT_ARTIFACTS = ("report", "fields", "heatmap", "trajectory", "oracle", "comparison")
KNOWN_ARTIFACTS = DEFAULT_ARTIFACTS + ("trace",)

# Exit codes: scientific outcome first, then error classes.
EXIT_REACHED = 0
EXIT_LOCKED = 2
EXIT_MAX_STEPS = 3
EXIT_CONFIG_ERROR = 4
EXIT_UNSOLVABLE = 5
EXIT_NO_CONVERGENCE = 6

_EXIT_FOR_TERMINATION = {
    Termination.REACHED_TARGET: EXIT_REACHED,
    Termination.LOCKED: EXIT_LOCKED,
    Termination.MAX_STEPS: EXIT_MAX_STEPS,
}


class ConfigError(ValueError):
    """Bad scenario configuration."""


class UnsolvableMazeError(RuntimeError):
    pass


class ConvergenceError(RuntimeError):
    pass


_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class ScenarioConfig:
    maze_file: str | None = None
    generator: str | None = None
    rings: int = 2
    gaps_per_ring: tuple[int, ...] = (1, 1)
    diameter_mm: float = 70.0
    channel_width_mm: float = 4.0
    wall_mm: float | None = None
    exit_angle_deg: float | None = None
    len_a_mm: float = 38.0
    len_b_mm: float = 42.0
    cell_size_mm: float = 0.5
    seed: int = 1
    sigma_electrolyte: float = 10.0
    sigma_wall: float = 0.0
    sigma_coating: float = 1.0e5
    voltage: float = 5.0
    coat_corners: bool = False
    tol: float = 1e-9
    max_iter: int = 0  # 0 = solver default
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    start: str = "auto"  # auto | axis | "<x_mm>,<y_mm>"
    artifacts: tuple[str, ...] = DEFAULT_ARTIFACTS
    out_dir: str = "out"

    def __post_init__(self):
        if (self.maze_file is None) == (self.generator is None):
            raise ConfigError("exactly one maze source required: maze_file or generator")
        if self.generator is not None and self.generator not in ("ring", "bifurcation"):
            raise ConfigError(f"unknown generator {self.generator!r}")
        for a in self.artifacts:
            if a not in KNOWN_ARTIFACTS:
                raise ConfigError(f"unknown artifact {a!r}")


_DYNAMICS_KEYS = {
    "mobility": float,
    "static_threshold": float,
    "dt": float,
    "max_steps": int,
    "lock_window": int,
    "lock_epsilon_mm": float,
    "force_gain": float,
    "radius_mm": float,
    "release_time": float,
    "stall_fraction": float,
    "noise_amplitude": float,
    "noise_seed": int,
}

_SCENARIO_KEYS = {
    "maze_file": str,
    "generator": str,
    "rings": int,
    "diameter_mm": float,
    "channel_width_mm": float,
    "wall_mm": float,
    "exit_angle_deg": float,
    "len_a_mm": float,
    "len_b_mm": float,
    "cell_size_mm": float,
    "seed": int,
    "sigma_electrolyte": float,
    "sigma_wall": float,
    "sigma_coating": float,
    "voltage": float,
    "tol": float,
    "max_iter": int,
    "start": str,
    "out": str,
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat `key = value` scenario format (same shape as the maze
    header). Unknown keys are rejected with their line number."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    kwargs: dict = {}
    dyn: dict = {}
    for key, value in raw.items():
        try:
            if key in _DYNAMICS_KEYS:
                dyn[key] = _DYNAMICS_KEYS[key](value)
            elif key == "force_source":
                dyn["force_source"] = ForceSource(value)
            elif key in _SCENARIO_KEYS:
                name = "out_dir" if key == "out" else key
                kwargs[name] = _SCENARIO_KEYS[key](value)
            elif key == "gaps_per_ring":
                kwargs["gaps_per_ring"] = tuple(int(v) for v in value.split(",") if v.strip())
            elif key == "coat_corners":
                if value.lower() not in _BOOL:
                    raise ValueError(value)
                kwargs["coat_corners"] = _BOOL[value.lower()]
            elif key == "artifacts":
                kwargs["artifacts"] = tuple(v.strip() for v in value.split(",") if v.strip())
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    if dyn:
        kwargs["dynamics"] = DynamicsParams(**dyn)
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


def build_maze(cfg: ScenarioConfig) -> MazeSpec:
    if cfg.maze_file is not None:
        spec = parse_maze(Path(cfg.maze_file).read_text())
    elif cfg.generator == "ring":
        spec = generate_ring_maze(
            rings=cfg.rings,
            gaps_per_ring=list(cfg.gaps_per_ring),
            diameter_mm=cfg.diameter_mm,
            channel_width_mm=cfg.channel_width_mm,
            seed=cfg.seed,
            cell_size_mm=cfg.cell_size_mm,
            wall_mm=cfg.wall_mm,
            exit_angle_deg=cfg.exit_angle_deg,
            sigma_electrolyte=cfg.sigma_electrolyte,
            sigma_wall=cfg.sigma_wall,
            sigma_coating=cfg.sigma_coating,
            applied_voltage=cfg.voltage,
        )
    else:
        spec = generate_bifurcation_maze(
            cfg.len_a_mm,
            cfg.len_b_mm,
            cfg.channel_width_mm,
            cell_size_mm=cfg.cell_size_mm,
            sigma_electrolyte=cfg.sigma_electrolyte,
            sigma_wall=cfg.sigma_wall,
            sigma_coating=cfg.sigma_coating,
            applied_voltage=cfg.voltage,
        )
    if cfg.coat_corners:
        spec = coat_sharp_corners(spec)
    return spec


def resolve_start(
    cfg: ScenarioConfig, maze: MazeSpec, seg: CorridorSegmentation, labels: LeeLabels
) -> tuple[float, float] | None:
    """auto -> default placement; axis -> default x, vertically centred
    (the mirror axis of the built-in symmetric mazes); "x,y" -> explicit mm.

    seg and labels are the maze's segment_corridors and lee_label results."""
    if cfg.start == "auto":
        return None
    if cfg.start == "axis":
        radius = droplet_radius_mm(cfg.dynamics, seg, maze.cell_size)
        cell = find_start(maze, radius, labels)
        x = (cell[0] + 0.5) * maze.cell_size
        return (x, maze.ny * maze.cell_size / 2.0)
    try:
        x, y = (float(v) for v in cfg.start.split(","))
    except ValueError:
        raise ConfigError(f"bad start {cfg.start!r}; use auto, axis, or x_mm,y_mm") from None
    return (x, y)


@dataclass(frozen=True, eq=False)
class CornerForceStats:
    max_force: float
    max_force_per_ampere: float  # normalized by the total current; compares
    # field shape between runs whose overall conductance differs
    n_corners: int
    disk_radius_mm: float


def _near_corners(
    channel: np.ndarray, corners: list[tuple[int, int]], h: float, reach_mm: float
) -> np.ndarray:
    """Channel cells whose centre lies within reach_mm of a corner cell's
    centre, by the test math.hypot(x - cx, y - cy) <= reach_mm.

    A stencil offset whose length is clearly below or above reach_mm
    decides every cell it reaches; the few within a rounding margin of it
    are tested cell by cell."""
    ny, nx = channel.shape
    reach = int(math.ceil(reach_mm / h)) + 1
    offsets = np.arange(-reach, reach + 1)
    length = h * np.hypot(offsets[None, :], offsets[:, None])  # [dy, dx]
    margin = 1e-9 * (max(nx, ny) * h + reach_mm)
    sure = length <= reach_mm - margin
    unsure = np.argwhere(abs(length - reach_mm) <= margin) - reach
    unsure = [(int(dx), int(dy)) for dy, dx in unsure]
    span = 2 * reach + 1
    near = np.zeros((ny + 2 * reach, nx + 2 * reach), dtype=bool)
    for cx, cy in corners:
        near[cy : cy + span, cx : cx + span] |= sure
    near = near[reach : reach + ny, reach : reach + nx] & channel
    for cx, cy in corners:
        ccx, ccy = (cx + 0.5) * h, (cy + 0.5) * h
        for dx, dy in unsure:
            ix, iy = cx + dx, cy + dy
            if (
                0 <= ix < nx
                and 0 <= iy < ny
                and channel[iy, ix]
                and math.hypot((ix + 0.5) * h - ccx, (iy + 0.5) * h - ccy) <= reach_mm
            ):
                near[iy, ix] = True
    return near


def corner_force_stats(
    maze: MazeSpec, fields: FieldBundle, params: DynamicsParams, seg: CorridorSegmentation
) -> CornerForceStats:
    """Max disk-integrated force magnitude over channel cells within one
    channel width (seg.width_cells) of a convex wall corner; the probe disk
    has half the channel width (radius = width/4).

    All probes are screened at once (disk_force_screen); only those whose
    screened force, widened by its rounding bound, can reach the largest
    screened lower bound are evaluated with disk_integrate, so the maximum
    is the same float a probe-by-probe scan finds."""
    corners = convex_corner_cells(maze)
    width_mm = seg.width_cells * maze.cell_size
    radius = width_mm / 4.0
    field_arr = select_force_field(fields, params.force_source)
    wall = maze.wall_mask()
    h = maze.cell_size
    iys, ixs = np.nonzero(_near_corners(maze.channel_mask(), corners, h, width_mm))
    best = 0.0
    if len(ixs):
        screened, bound = disk_force_screen(field_arr, (iys, ixs), radius, wall, params.force_gain)
        keep = screened + bound >= (screened - bound).max()
        for ix, iy in zip(ixs[keep].tolist(), iys[keep].tolist()):
            x, y = (ix + 0.5) * h, (iy + 0.5) * h
            f = disk_integrate(field_arr, (x, y), radius, wall_mask=wall, gain=params.force_gain)
            best = max(best, math.hypot(f[0], f[1]))
    current = fields.report.current_in
    return CornerForceStats(
        max_force=best,
        max_force_per_ampere=best / current if current > 0 else math.inf,
        n_corners=len(corners),
        disk_radius_mm=radius,
    )


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    config: ScenarioConfig
    maze: MazeSpec
    fields: FieldBundle
    segmentation: CorridorSegmentation
    path: OraclePath
    streamline_sequence: tuple[int, ...]
    trajectory: Trajectory
    comparison: ComparisonMetrics
    corner_stats: CornerForceStats
    lock_parameter_sensitive: bool
    report: dict

    @property
    def exit_code(self) -> int:
        return _EXIT_FOR_TERMINATION[self.trajectory.termination]


def prepare_fields(cfg: ScenarioConfig):
    """Build the maze and solve it; shared head of every pipeline."""
    maze = build_maze(cfg)
    components = validate_and_components(maze)
    if not components.solvable:
        raise UnsolvableMazeError("no channel route connects the electrodes")
    fields = compute_fields(maze, tol=cfg.tol, max_iter=cfg.max_iter or None)
    if not fields.report.converged:
        raise ConvergenceError(
            f"solver did not converge: residual {fields.report.final_residual:.3e}"
            f" after {fields.report.iterations} iterations"
        )
    return maze, components, fields


def _report_head(cfg: ScenarioConfig, maze: MazeSpec, components, fields: FieldBundle) -> dict:
    return {
        "tool": {"name": "dropmaze", "version": _VERSION},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": _echo_config(cfg),
        "maze": {
            "nx": maze.nx,
            "ny": maze.ny,
            "cell_size_mm": maze.cell_size,
            "n_components": components.n_components,
            "solvable": components.solvable,
            "coated_cells": int((maze.cells == 2).sum()),
        },
        "solve": {
            "iterations": fields.report.iterations,
            "final_residual": fields.report.final_residual,
            "converged": fields.report.converged,
            "current_in": fields.report.current_in,
            "current_out": fields.report.current_out,
            "current_imbalance": fields.report.current_imbalance(),
        },
    }


def run_fields_only(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> dict:
    """The `solve` pipeline: fields and their exports, no droplet, no oracle."""
    maze, components, fields = prepare_fields(cfg)
    report = _report_head(cfg, maze, components, fields)
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    write_field_csv(out / "potential.csv", fields.phi)
    write_pgm(out / "potential.pgm", normalize_u8(fields.phi.values))
    write_field_csv(out / "current.csv", fields.j)
    render_field(fields.joule, out / "joule.pgm", style="overlay", maze=maze)
    return report


def run_oracle_only(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> dict:
    """The `oracle` pipeline: Lee labels, path and streamline read-outs only.

    The start cell is the droplet's default placement so the oracle route
    is the one a simulate run gets compared against.
    """
    maze, components, fields = prepare_fields(cfg)
    seg = segment_corridors(maze)
    labels = lee_label(maze)
    start = find_start(maze, droplet_radius_mm(cfg.dynamics, seg, maze.cell_size), labels)
    path = extract_path(labels, start)
    p_seq = region_sequence(path.cells, seg)
    stream = trace_route_streamline(fields.j, maze, seg=seg)
    s_seq = region_sequence(stream.cells(maze.cell_size), seg)

    report = _report_head(cfg, maze, components, fields)
    report["oracle"] = {
        "start_cell": list(start),
        "path_cells": len(path.cells),
        "path_length_mm": path.length_mm,
        "path_sequence": list(p_seq),
        "streamline_termination": stream.termination.value,
        "streamline_sequence": list(s_seq),
        "streamline_matches_path": s_seq == p_seq,
        "streamline_path_overlap": seg.cell_overlap(s_seq, p_seq),
    }
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    write_path_csv(out / "path.csv", path)
    return report


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """solve -> fields -> simulate -> oracle -> compare, all in memory."""
    maze, components, fields = prepare_fields(cfg)
    seg = segment_corridors(maze)
    labels = lee_label(maze)
    start_mm = resolve_start(cfg, maze, seg, labels)
    traj = simulate(maze, cfg.dynamics, fields, start_mm=start_mm, seg=seg, labels=labels)

    path = extract_path(labels, traj.start_cell)
    comparison = compare_trajectory(traj, path, seg)
    stream = trace_route_streamline(fields.j, maze, seg=seg)
    stream_seq = region_sequence(stream.cells(maze.cell_size), seg)
    corner = corner_force_stats(maze, fields, cfg.dynamics, seg)

    thr = cfg.dynamics.static_threshold
    sensitive = (
        traj.termination is Termination.LOCKED
        and thr > 0
        and traj.final_effective_force > 1e-4 * thr
    )

    vp = velocity_profile(traj)
    report = _report_head(cfg, maze, components, fields)
    report.update({
        "trajectory": {
            "termination": traj.termination.value,
            "steps": len(traj) - 1,
            "dt_s": traj.dt,
            "sim_time_s": float(traj.times[-1]),
            "path_length_mm": traj.path_length_mm,
            "radius_mm": traj.radius_mm,
            "start_cell": list(traj.start_cell),
            "final_effective_force": traj.final_effective_force,
            "lock_parameter_sensitive": sensitive,
            "dwell_segments": [
                {"t0_s": float(traj.times[i0]), "t1_s": float(traj.times[i1])}
                for i0, i1 in vp.dwell_segments
            ],
        },
        "oracle": {
            "path_cells": len(path.cells),
            "path_length_mm": path.length_mm,
            "path_sequence": list(comparison.path_sequence),
            "streamline_sequence": list(stream_seq),
            "streamline_matches_path": stream_seq == comparison.path_sequence,
        },
        "comparison": {
            "max_lateral_deviation_mm": comparison.max_lateral_deviation_mm,
            "length_ratio": comparison.length_ratio,
            "corridor_sequence_equal": comparison.corridor_sequence_equal,
            "cell_overlap": comparison.cell_overlap,
            "trajectory_sequence": list(comparison.trajectory_sequence),
        },
        "corner_force": {
            "max": corner.max_force,
            "max_per_ampere": corner.max_force_per_ampere,
            "n_corners": corner.n_corners,
            "disk_radius_mm": corner.disk_radius_mm,
        },
    })
    return ScenarioResult(
        config=cfg,
        maze=maze,
        fields=fields,
        segmentation=seg,
        path=path,
        streamline_sequence=stream_seq,
        trajectory=traj,
        comparison=comparison,
        corner_stats=corner,
        lock_parameter_sensitive=sensitive,
        report=report,
    )


def _echo_config(cfg: ScenarioConfig) -> dict:
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, DynamicsParams):
            dv = dataclasses.asdict(v)
            dv["force_source"] = v.force_source.value
            out[f.name] = dv
        elif isinstance(v, tuple):
            out[f.name] = list(v)
        else:
            out[f.name] = v
    return out


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    lines = ["t_s,x_mm,y_mm,speed_mm_s,force_mag"]
    for t, (x, y), s, fm in traj.samples():
        lines.append(f"{t!r},{x!r},{y!r},{s!r},{fm!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_path_csv(path: str | Path, oracle_path: OraclePath) -> None:
    h = oracle_path.cell_size
    lines = ["ix,iy,x_mm,y_mm"]
    for ix, iy in oracle_path.cells:
        lines.append(f"{ix},{iy},{(ix + 0.5) * h!r},{(iy + 0.5) * h!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_bundle(result: ScenarioResult, out_dir: str | Path | None = None) -> list[Path]:
    """Write the requested artifacts with stable names; returns the paths.

    Full artifact set: report.json, potential.csv, potential.pgm,
    current.csv, joule.pgm, trajectory.csv, path.csv, comparison.json
    (plus trace.ppm when the optional trace artifact is requested).
    """
    cfg = result.config
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wanted = set(cfg.artifacts)
    written: list[Path] = []

    def emit(name: str, writer) -> None:
        p = out / name
        writer(p)
        written.append(p)

    if "report" in wanted:
        emit(
            "report.json",
            lambda p: p.write_text(json.dumps(result.report, sort_keys=True, indent=2) + "\n"),
        )
    if "fields" in wanted:
        emit("potential.csv", lambda p: write_field_csv(p, result.fields.phi))
        emit("potential.pgm", lambda p: write_pgm(p, normalize_u8(result.fields.phi.values)))
        emit("current.csv", lambda p: write_field_csv(p, result.fields.j))
    if "heatmap" in wanted:
        emit(
            "joule.pgm",
            lambda p: render_field(result.fields.joule, p, style="overlay", maze=result.maze),
        )
    if "trajectory" in wanted:
        emit("trajectory.csv", lambda p: write_trajectory_csv(p, result.trajectory))
    if "oracle" in wanted:
        emit("path.csv", lambda p: write_path_csv(p, result.path))
    if "comparison" in wanted:
        comparison = {
            "max_lateral_deviation_mm": result.comparison.max_lateral_deviation_mm,
            "length_ratio": result.comparison.length_ratio,
            "corridor_sequence_equal": result.comparison.corridor_sequence_equal,
            "cell_overlap": result.comparison.cell_overlap,
            "trajectory_sequence": list(result.comparison.trajectory_sequence),
            "path_sequence": list(result.comparison.path_sequence),
            "streamline_sequence": list(result.streamline_sequence),
        }
        emit(
            "comparison.json",
            lambda p: p.write_text(json.dumps(comparison, sort_keys=True, indent=2) + "\n"),
        )
    if "trace" in wanted:
        emit(
            "trace.ppm",
            lambda p: render_trajectory_overlay(result.maze, result.trajectory, p),
        )
    return written


def run_and_export(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> ScenarioResult:
    result = run_scenario(cfg)
    export_bundle(result, out_dir)
    return result


def compare_bundles(report_a: dict, report_b: dict) -> dict:
    """Edge-study diff between two scenario reports (e.g. insulated walls
    vs coated corners on the same maze).

    The headline `corner_force_reduced` compares the per-ampere maxima:
    coating also raises the total current at fixed voltage, and the claim
    under test is about field shape at the edges, not the drive level.
    """
    ca = report_a["corner_force"]["max_per_ampere"]
    cb = report_b["corner_force"]["max_per_ampere"]
    return {
        "corner_force_max_a": report_a["corner_force"]["max"],
        "corner_force_max_b": report_b["corner_force"]["max"],
        "corner_force_per_ampere_a": ca,
        "corner_force_per_ampere_b": cb,
        "corner_force_reduced": cb < ca,
        "reduction_factor": (ca / cb) if cb > 0 else math.inf,
        "termination_a": report_a["trajectory"]["termination"],
        "termination_b": report_b["trajectory"]["termination"],
    }
