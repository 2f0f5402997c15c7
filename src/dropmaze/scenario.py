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
from typing import Iterable

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
    Streamline,
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
        if self.start not in ("auto", "axis"):
            _start_point(self.start)
        for name in ("cell_size_mm", "tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be >= 0")


def _finite(value: str) -> float:
    """float() without nan and the infinities, which no parameter means."""
    if not math.isfinite(number := float(value)):
        raise ValueError(value)
    return number


def _start_point(start: str) -> tuple[float, float]:
    try:
        x, y = (_finite(v) for v in start.split(","))
    except ValueError:
        raise ConfigError(f"bad start {start!r}; use auto, axis, or x_mm,y_mm") from None
    return x, y


_DYNAMICS_KEYS = {
    **dict.fromkeys(("max_steps", "lock_window", "noise_seed"), int),
    **dict.fromkeys(
        ("mobility", "static_threshold", "dt", "lock_epsilon_mm", "force_gain", "radius_mm",
         "release_time", "stall_fraction", "noise_amplitude"),
        _finite,
    ),
}

_SCENARIO_KEYS = {
    **dict.fromkeys(("maze_file", "generator", "start", "out"), str),
    **dict.fromkeys(("rings", "seed", "max_iter"), int),
    **dict.fromkeys(
        ("diameter_mm", "channel_width_mm", "wall_mm", "exit_angle_deg", "len_a_mm", "len_b_mm",
         "cell_size_mm", "sigma_electrolyte", "sigma_wall", "sigma_coating", "voltage", "tol"),
        _finite,
    ),
}

# Keys each maze source never reads. A maze file's header sets the cell
# size, the conductivities and the voltage; each generator reads only its
# own geometry, and the bifurcation draws nothing at random.
_UNREAD_KEYS = {
    "maze_file": (
        "rings", "gaps_per_ring", "diameter_mm", "channel_width_mm", "wall_mm", "exit_angle_deg",
        "len_a_mm", "len_b_mm", "seed", "cell_size_mm", "sigma_electrolyte", "sigma_wall",
        "sigma_coating", "voltage",
    ),
    "generator = ring": ("len_a_mm", "len_b_mm"),
    "generator = bifurcation": (
        "rings", "gaps_per_ring", "diameter_mm", "wall_mm", "exit_angle_deg", "seed"
    ),
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat `key = value` scenario format (same shape as the maze
    header). Unknown keys are rejected, and so are keys that the config's
    maze source does not read."""
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
    try:
        if dyn:
            kwargs["dynamics"] = DynamicsParams(**dyn)
        cfg = ScenarioConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    reject_unread_keys(cfg, raw)
    return cfg


def _maze_source(cfg: ScenarioConfig) -> str:
    """cfg's key into _UNREAD_KEYS."""
    return "maze_file" if cfg.maze_file is not None else f"generator = {cfg.generator}"


def reject_unread_keys(cfg: ScenarioConfig, keys: Iterable[str]) -> None:
    """Raise ConfigError on the first of keys that cfg's maze source never
    reads, so no run echoes a value it did not use."""
    source = _maze_source(cfg)
    for key in keys:
        if key in _UNREAD_KEYS[source]:
            raise ConfigError(f"{key!r} is not read with {source}")


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
    start: str,
    params: DynamicsParams,
    maze: MazeSpec,
    seg: CorridorSegmentation,
    labels: LeeLabels,
) -> tuple[tuple[float, float], float, OraclePath]:
    """A run's start point (mm), droplet radius (mm) and the Lee path from
    the cell holding the start, for a config's `start` spec: auto -> the
    centre of the default placement (find_start); axis -> that cell's x,
    vertically centred (the mirror axis of the built-in symmetric mazes);
    "x,y" -> the given point.

    seg and labels are the maze's segment_corridors and lee_label results."""
    h = maze.cell_size
    radius = droplet_radius_mm(params, seg, h)
    if start in ("auto", "axis"):
        x, y = maze.cell_center_mm(*find_start(maze, radius, labels))
        if start == "axis":
            y = maze.ny * h / 2.0
    else:
        x, y = _start_point(start)
    return (x, y), radius, extract_path(labels, (int(x // h), int(y // h)))


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
    trajectory: Trajectory
    comparison: ComparisonMetrics
    corner_stats: CornerForceStats
    lock_parameter_sensitive: bool
    report: dict

    @property
    def exit_code(self) -> int:
        return _EXIT_FOR_TERMINATION[self.trajectory.termination]


@dataclass(frozen=True, eq=False)
class _MazeRoute:
    """The route of a solved maze, whatever the droplet and its start:
    its segmentation, Lee labels, the fan's route streamlines (more than
    one when the fan is tied) and their corridor sequences, in sequence
    order."""

    seg: CorridorSegmentation
    labels: LeeLabels
    streams: tuple[Streamline, ...]
    stream_sequences: tuple[tuple[int, ...], ...]


@dataclass(eq=False)
class SolvedMaze:
    """One entry of the maze stage: a built maze, its number of channel
    components, its converged fields, and its route once a pipeline has
    asked for it."""

    key: tuple
    maze: MazeSpec
    n_components: int
    fields: FieldBundle
    _route: _MazeRoute | None = None

    def route(self) -> _MazeRoute:
        """The maze's route, computed the first time it is asked for."""
        route = self._route
        if route is None:
            seg = segment_corridors(self.maze)
            streams = trace_route_streamline(
                self.fields.j, self.maze, seg=seg, tol=self.fields.report.tol
            )
            # Tied branches in corridor-sequence order, so the report does
            # not depend on which branch rounding made heavier.
            tied = sorted(
                ((region_sequence(s.cells(self.maze.cell_size), seg), s) for s in streams),
                key=lambda pair: pair[0],
            )
            route = _MazeRoute(
                seg, lee_label(self.maze), tuple(s for _, s in tied), tuple(q for q, _ in tied)
            )
            self._route = route
        return route


def _content(value) -> tuple:
    """value in a form that compares equal only for the same bits: arrays
    by dtype, shape and bytes, dataclasses field by field, other scalars
    by type and repr (so -0.0 differs from 0.0)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return tuple(_content(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_content(v) for v in value)
    if isinstance(value, frozenset):
        return tuple(sorted(_content(v) for v in value))
    return (type(value).__name__, repr(value))


# The maze stage's one entry: the last maze solved in this process.
_solved: SolvedMaze | None = None


def _forget_solved_maze() -> None:
    """Empty the maze stage (for tests)."""
    global _solved
    _solved = None


def prepare_fields(cfg: ScenarioConfig) -> SolvedMaze:
    """The maze stage, shared head of every pipeline: build the maze, and
    solve it unless it is the last maze solved in this process.

    The key is the built maze's content with the solve's tol and max_iter,
    which is all the fields and the route read; the droplet and the start
    stay out of it. A new maze replaces the entry, and a maze that is
    unsolvable or whose solve does not converge leaves the stage empty, so
    the error is raised again on every run. Every array the entry holds
    is read-only."""
    global _solved
    maze = build_maze(cfg)
    key = _content((maze, cfg.tol, cfg.max_iter))
    solved = _solved
    if solved is not None and solved.key == key:
        return solved
    _solved = solved = None  # the old maze's arrays go before the new ones come
    components = validate_and_components(maze)
    if not components.solvable:
        raise UnsolvableMazeError("no channel route connects the electrodes")
    fields = compute_fields(maze, tol=cfg.tol, max_iter=cfg.max_iter or None)
    if not fields.report.converged:
        raise ConvergenceError(
            f"solver did not converge: residual {fields.report.final_residual:.3e}"
            f" after {fields.report.iterations} iterations"
        )
    _solved = solved = SolvedMaze(key, maze, components.n_components, fields)
    return solved


def _report_head(cfg: ScenarioConfig, solved: SolvedMaze) -> dict:
    maze, fields = solved.maze, solved.fields
    return {
        "tool": {"name": "dropmaze", "version": _VERSION},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": _echo_config(cfg),
        "maze": {
            "nx": maze.nx,
            "ny": maze.ny,
            "cell_size_mm": maze.cell_size,
            "n_components": solved.n_components,
            "solvable": True,  # an unsolvable maze raised in prepare_fields
            "coated_cells": int((maze.cells == 2).sum()),
        },
        "solve": {
            "iterations": fields.report.iterations,
            "unknowns": fields.report.unknowns,
            "final_residual": fields.report.final_residual,
            "converged": fields.report.converged,
            "current_in": fields.report.current_in,
            "current_out": fields.report.current_out,
            "current_imbalance": fields.report.current_imbalance(),
        },
    }


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _route(cfg: ScenarioConfig, solved: SolvedMaze):
    """The route stage of `oracle` and `simulate`: the solved maze's
    route, the configured start (point, mm), the droplet radius, the Lee
    path from the start's cell, the fan streamline reported, and the
    oracle read-outs report.json and oracle.json share.

    When the fan is tied, the streamline reported is the tied branch that
    follows the Lee path, if one does (the Lee descent's fixed order makes
    that pick reproducible), else the first in sequence order;
    `streamline_tie` lists every tied branch's sequence in that order, and
    is empty without a tie."""
    route = solved.route()
    start_mm, radius, path = resolve_start(
        cfg.start, cfg.dynamics, solved.maze, route.seg, route.labels
    )
    p_seq = region_sequence(path.cells, route.seg)
    seqs = route.stream_sequences
    pick = seqs.index(p_seq) if p_seq in seqs else 0
    s_seq = seqs[pick]
    oracle = {
        "path_cells": len(path.cells),
        "path_length_mm": path.length_mm,
        "path_sequence": list(p_seq),
        "streamline_sequence": list(s_seq),
        "streamline_matches_path": s_seq == p_seq,
        "streamline_tie": [list(seq) for seq in seqs] if len(seqs) > 1 else [],
    }
    return route, start_mm, radius, path, route.streams[pick], oracle


def run_fields_only(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> dict:
    """The `solve` pipeline: fields and their exports, no droplet, no oracle."""
    solved = prepare_fields(cfg)
    maze, fields = solved.maze, solved.fields
    report = _report_head(cfg, solved)
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    write_field_csv(out / "potential.csv", fields.phi)
    write_pgm(out / "potential.pgm", normalize_u8(fields.phi.values))
    write_field_csv(out / "current.csv", fields.j)
    render_field(fields.joule, out / "joule.pgm", style="overlay", maze=maze)
    return report


def run_oracle_only(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> dict:
    """The `oracle` pipeline: Lee labels, path and streamline read-outs only.

    The route is the one a simulate run of the same config gets compared
    against: the same start, path and streamline."""
    solved = prepare_fields(cfg)
    route, _, _, path, stream, oracle = _route(cfg, solved)
    s_seq, p_seq = oracle["streamline_sequence"], oracle["path_sequence"]
    report = _report_head(cfg, solved)
    report["oracle"] = dict(
        oracle,
        start_cell=list(path.cells[0]),
        streamline_termination=stream.termination.value,
        streamline_path_overlap=route.seg.cell_overlap(s_seq, p_seq),
    )
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "oracle.json", report)
    write_path_csv(out / "path.csv", path)
    return report


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """solve -> fields -> simulate -> oracle -> compare, all in memory."""
    solved = prepare_fields(cfg)
    maze, fields = solved.maze, solved.fields
    route, start_mm, radius, path, _, oracle = _route(cfg, solved)
    seg = route.seg
    traj = simulate(maze, cfg.dynamics, fields, start_mm, radius, path)
    comparison = compare_trajectory(traj, path, seg)
    corner = corner_force_stats(maze, fields, cfg.dynamics, seg)

    thr = cfg.dynamics.static_threshold
    sensitive = (
        traj.termination is Termination.LOCKED
        and thr > 0
        and traj.final_effective_force > 1e-4 * thr
    )

    vp = velocity_profile(traj)
    report = _report_head(cfg, solved)
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
        "oracle": oracle,
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
        trajectory=traj,
        comparison=comparison,
        corner_stats=corner,
        lock_parameter_sensitive=sensitive,
        report=report,
    )


def _echo_config(cfg: ScenarioConfig) -> dict:
    """The config fields a run reads, with their values: the maze source
    in use, and none of the keys that source never reads."""
    unread = _UNREAD_KEYS[_maze_source(cfg)]
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if f.name in unread or (f.name in ("maze_file", "generator") and v is None):
            continue
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
        emit("report.json", lambda p: _write_json(p, result.report))
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
        oracle = result.report["oracle"]
        comparison = dict(
            result.report["comparison"],
            path_sequence=oracle["path_sequence"],
            streamline_sequence=oracle["streamline_sequence"],
        )
        emit("comparison.json", lambda p: _write_json(p, comparison))
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
