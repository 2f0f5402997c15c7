"""Scenario harness: wire the solver, droplet, and oracle into reproducible
runs driven by a flat `key = value` config file, with stable file outputs.

A re-run of the same config produces byte-identical files except for the
timestamp field inside report.json.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import inspect
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__ as _VERSION
from .currents import CurrentRoute, current_route
from .dynamics import (
    DynamicsParams,
    RowSums,
    Termination,
    Trajectory,
    disk_integrate,
    disk_integrate_cells,
    droplet_radius_mm,
    dwell_segments,
    find_start,
    simulate,
)
from .generators import generate_bifurcation_maze, generate_ring_maze
from .maze import (
    HEADER_FIELDS,
    MazeSpec,
    coat_sharp_corners,
    convex_corner_cells,
    emit_maze,
    parse_maze,
    validate_and_components,
)
from .oracle import (
    CorridorSegmentation,
    LeeLabels,
    Path as OraclePath,
    Streamline,
    StreamTermination,
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


# Each generator's keyword parameters, which are the config keys it reads.
# build_maze looks the generator up by its module name when it runs, so a
# wrapper bound to that name sees each call.
_GENERATOR_KEYS = {
    name: tuple(inspect.signature(globals()[f"generate_{name}_maze"]).parameters)
    for name in ("ring", "bifurcation")
}


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
    cell_size_mm: float = MazeSpec.cell_size
    seed: int = 1
    sigma_electrolyte: float = MazeSpec.sigma_electrolyte
    sigma_wall: float = MazeSpec.sigma_wall
    sigma_coating: float = MazeSpec.sigma_coating
    voltage: float = MazeSpec.applied_voltage
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
        if self.generator is not None and self.generator not in _GENERATOR_KEYS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        for a in self.artifacts:
            if a not in KNOWN_ARTIFACTS:
                raise ConfigError(f"unknown artifact {a!r}")
        if self.start not in ("auto", "axis"):
            _start_point(self.start)
        for name in ("cell_size_mm", "tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):  # NaN fails both
                raise ConfigError(f"{name} must be a finite positive number")
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


_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _bool(value: str) -> bool:
    if value.lower() not in _BOOL:
        raise ValueError(value)
    return _BOOL[value.lower()]


def _list(parse):
    """A parser of comma-separated items, each read by parse; empty items
    are dropped."""
    return lambda value: tuple(parse(v.strip()) for v in value.split(",") if v.strip())


# The parser of each field's annotation text (f.type, as this module and
# dynamics postpone annotations).
_PARSERS = {
    "int": int,
    "float": _finite,
    "float | None": _finite,
    "str": str,
    "str | None": str,
    "bool": _bool,
    "tuple[int, ...]": _list(int),
    "tuple[str, ...]": _list(str),
}

# Config key -> (field name, parser). A key is its field's name, except
# `out` for out_dir; the droplet's keys set the fields of `dynamics`.
_CONFIG_KEYS = {
    "out" if f.name == "out_dir" else f.name: (f.name, _PARSERS[f.type])
    for f in dataclasses.fields(ScenarioConfig)
    if f.name != "dynamics"
}
_DYNAMICS_KEYS = {f.name: (f.name, _PARSERS[f.type]) for f in dataclasses.fields(DynamicsParams)}


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
        into, table = (dyn, _DYNAMICS_KEYS) if key in _DYNAMICS_KEYS else (kwargs, _CONFIG_KEYS)
        if key not in table:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = table[key]
        try:
            into[name] = parse(value)
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


def _unread_keys(cfg: ScenarioConfig) -> tuple[str, set[str]]:
    """cfg's maze source, as config errors name it, and the keys that
    source never reads. A maze file's header sets the cell size, the
    conductivities and the voltage; each generator reads only its own
    geometry keys, and the other generator's are unread."""
    every = set().union(*_GENERATOR_KEYS.values())
    if cfg.maze_file is not None:
        return "maze_file", every | set(HEADER_FIELDS)
    return f"generator = {cfg.generator}", every - set(_GENERATOR_KEYS[cfg.generator])


def reject_unread_keys(cfg: ScenarioConfig, keys: Iterable[str]) -> None:
    """Raise ConfigError on the first of keys that cfg's maze source never
    reads, so no run echoes a value it did not use."""
    source, unread = _unread_keys(cfg)
    for key in keys:
        if key in unread:
            raise ConfigError(f"{key!r} is not read with {source}")


def load_config(path: str | Path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


def build_maze(cfg: ScenarioConfig) -> MazeSpec:
    if cfg.maze_file is not None:
        spec = parse_maze(Path(cfg.maze_file).read_text())
    else:
        generate = globals()[f"generate_{cfg.generator}_maze"]
        spec = generate(**{key: getattr(cfg, key) for key in _GENERATOR_KEYS[cfg.generator]})
        # A generator builds geometry; the config sets the physics.
        physics = {name: getattr(cfg, key) for key, name in HEADER_FIELDS.items()}
        spec = dataclasses.replace(spec, **physics)
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


def _near_corners(channel: np.ndarray, corners: list[tuple[int, int]], width: int) -> np.ndarray:
    """Channel cells within width cells of a corner cell: those whose
    offset (dx, dy) from it has dx * dx + dy * dy <= width * width."""
    ny, nx = channel.shape
    offsets = np.arange(-width, width + 1)
    disk = offsets[None, :] ** 2 + offsets[:, None] ** 2 <= width * width
    span = 2 * width + 1
    near = np.zeros((ny + 2 * width, nx + 2 * width), dtype=bool)
    for cx, cy in corners:
        near[cy : cy + span, cx : cx + span] |= disk
    return near[width : width + ny, width : width + nx] & channel


def corner_force_stats(
    maze: MazeSpec, fields: FieldBundle, params: DynamicsParams, seg: CorridorSegmentation
) -> dict:
    """The `corner_force` section of report.json: the max disk-integrated
    force magnitude over channel cells within one channel width
    (seg.width_cells, a whole number of cells: twice a median wall
    distance) of a convex wall corner, and that max per ampere of
    total current, which compares field shape between runs whose overall
    conductance differs. The probe disk has half the channel width
    (radius = width/4).

    All probes are summed at once (disk_integrate_cells), which gives
    each the float disk_integrate gives; the largest probe goes through
    disk_integrate once more for its value."""
    corners = convex_corner_cells(maze)
    h = maze.cell_size
    radius = seg.width_cells * h / 4.0
    iys, ixs = np.nonzero(_near_corners(maze.channel_mask(), corners, int(seg.width_cells)))
    best = 0.0
    if len(ixs):
        sums = RowSums(fields.j, maze.wall_mask())
        fx, fy = disk_integrate_cells(sums, (iys, ixs), radius, params.force_gain)
        forces = list(map(math.hypot, fx.tolist(), fy.tolist()))
        k = forces.index(max(forces))
        x, y = (ixs.item(k) + 0.5) * h, (iys.item(k) + 0.5) * h
        best = math.hypot(*disk_integrate(sums, (x, y), radius, params.force_gain))
    current = fields.report.current_in
    return {
        "max": best,
        "max_per_ampere": best / current if current > 0 else math.inf,
        "n_corners": len(corners),
        "disk_radius_mm": radius,
    }


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    config: ScenarioConfig
    solved: SolvedMaze
    path: OraclePath
    trajectory: Trajectory
    report: dict

    @property
    def maze(self) -> MazeSpec:
        return self.solved.maze

    @property
    def fields(self) -> FieldBundle:
        return self.solved.fields

    @property
    def exit_code(self) -> int:
        return _EXIT_FOR_TERMINATION[self.trajectory.termination]


# The field files of a solved maze, in bundle order: the artifact that
# asks for each, and its writer. The writers look up the render functions
# when they run, so a wrapper bound to the module's name sees each write.
_FIELD_FILES = {
    "potential.csv": ("fields", lambda solved, p: write_field_csv(p, solved.fields.phi)),
    "potential.pgm": (
        "fields", lambda solved, p: write_pgm(p, normalize_u8(solved.fields.phi.values))
    ),
    "current.csv": ("fields", lambda solved, p: write_field_csv(p, solved.fields.j)),
    "joule.pgm": (
        "heatmap",
        lambda solved, p: render_field(solved.fields.joule, p, style="overlay", maze=solved.maze),
    ),
}


@dataclass(eq=False)
class SolvedMaze:
    """One entry of the maze stage: a built maze, its number of channel
    components, its converged fields, and what pipelines have asked of it
    since: its segmentation, Lee labels, current route and the route's
    branches with their streamlines (each computed the first time it is
    read), its corner statistics for each force gain, and the field files
    it has written (name -> path, st_size, st_mtime_ns)."""

    key: tuple
    maze: MazeSpec
    n_components: int
    fields: FieldBundle
    _corner_stats: dict[float, dict] = field(default_factory=dict)
    _written: dict[str, tuple[Path, int, int]] = field(default_factory=dict)

    @functools.cached_property
    def seg(self) -> CorridorSegmentation:
        return segment_corridors(self.maze)

    @functools.cached_property
    def labels(self) -> LeeLabels:
        return lee_label(self.maze)

    @functools.cached_property
    def route(self) -> CurrentRoute:
        return current_route(self.fields.j, self.maze, self.seg, self.fields.report.tol)

    @functools.cached_property
    def branches(self) -> tuple[tuple[tuple[int, ...], Streamline], ...]:
        """The route's (corridor sequence, cross-check streamline) pairs."""
        return trace_route_streamline(self.fields.j, self.maze, self.seg, self.fields.report.tol)

    def corner_stats(self, params: DynamicsParams) -> dict:
        """A copy of corner_force_stats of the maze, computed once per force
        gain, the one droplet parameter it reads."""
        stats = self._corner_stats.get(params.force_gain)
        if stats is None:
            stats = corner_force_stats(self.maze, self.fields, params, self.seg)
            self._corner_stats[params.force_gain] = stats
        return dict(stats)

    def write_field_files(
        self, out: Path, artifacts: Iterable[str] = ("fields", "heatmap")
    ) -> list[Path]:
        """Write into out the field files that artifacts ask for; returns
        their paths.

        The first write of each file is recorded, and later calls copy it
        file to file while it keeps its size and mtime, so no file's bytes
        stay in memory. A recorded file that is gone, changed, or is the
        destination itself is written afresh, and that write is recorded
        instead."""
        written = []
        for name, (artifact, write) in _FIELD_FILES.items():
            if artifact not in artifacts:
                continue
            path = out / name
            if not self._copy_written(name, path):
                write(self, path)
                st = path.stat()
                self._written[name] = (path.absolute(), st.st_size, st.st_mtime_ns)
            written.append(path)
        return written

    def _copy_written(self, name: str, path: Path) -> bool:
        """Copy this maze's recorded write of name to path, if unchanged."""
        if name not in self._written:
            return False
        source, size, mtime_ns = self._written[name]
        try:
            st = source.stat()
            if (st.st_size, st.st_mtime_ns) != (size, mtime_ns):
                return False
            shutil.copyfile(source, path)
        except (FileNotFoundError, shutil.SameFileError):
            return False
        return True


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
    key = (emit_maze(maze), cfg.tol, cfg.max_iter)
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
    """The route stage of `oracle` and `simulate`: the configured start
    (point, mm), the droplet radius, the Lee path from the start's cell,
    the route streamline reported, and the oracle read-outs report.json
    and oracle.json share.

    When the route is tied, the streamline reported is the tied branch's
    that follows the Lee path, if one does (the Lee descent's fixed order
    makes that pick reproducible), else the first in sequence order;
    `streamline_tie` lists every tied branch's sequence in that order, and
    is empty without a tie. `streamline_follows_route` says whether every
    branch's streamline reaches the target through its sequence.
    `route_current_share` gives each corridor of the reported sequence its
    current as a share of the current in, and `route_split_margin` is the
    route's split_margin (null when no path leaves it)."""
    seqs = [seq for seq, _ in solved.branches]
    start_mm, radius, path = resolve_start(
        cfg.start, cfg.dynamics, solved.maze, solved.seg, solved.labels
    )
    p_seq = region_sequence(path.cells, solved.seg)
    pick = seqs.index(p_seq) if p_seq in seqs else 0
    s_seq, stream = solved.branches[pick]
    h, current_in = solved.maze.cell_size, solved.fields.report.current_in
    currents = solved.route.region_current.tolist()
    oracle = {
        "path_cells": len(path.cells),
        "path_length_mm": path.length_mm,
        "path_sequence": list(p_seq),
        "streamline_sequence": list(s_seq),
        "streamline_matches_path": s_seq == p_seq,
        "streamline_tie": [list(seq) for seq in seqs] if len(seqs) > 1 else [],
        "streamline_follows_route": all(
            trace.termination is StreamTermination.REACHED
            and region_sequence(trace.cells(h), solved.seg) == seq
            for seq, trace in solved.branches
        ),
        "route_current_share": [currents[r] / current_in for r in s_seq],
        "route_split_margin": solved.route.split_margin,
    }
    return start_mm, radius, path, stream, oracle


def run_fields_only(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> dict:
    """The `solve` pipeline: fields and their exports, no droplet, no oracle."""
    solved = prepare_fields(cfg)
    report = _report_head(cfg, solved)
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    solved.write_field_files(out)
    return report


def run_oracle_only(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> dict:
    """The `oracle` pipeline: Lee labels, path and streamline read-outs only.

    The route is the one a simulate run of the same config gets compared
    against: the same start, path and streamline."""
    solved = prepare_fields(cfg)
    _, _, path, stream, oracle = _route(cfg, solved)
    s_seq, p_seq = oracle["streamline_sequence"], oracle["path_sequence"]
    report = _report_head(cfg, solved)
    report["oracle"] = dict(
        oracle,
        start_cell=list(path.cells[0]),
        streamline_termination=stream.termination.value,
        streamline_path_overlap=solved.seg.cell_overlap(s_seq, p_seq),
    )
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "oracle.json", report)
    write_path_csv(out / "path.csv", path)
    return report


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """solve -> fields -> simulate -> oracle -> compare, all in memory."""
    solved = prepare_fields(cfg)
    start_mm, radius, path, _, oracle = _route(cfg, solved)
    traj = simulate(solved.maze, cfg.dynamics, solved.fields, start_mm, radius, path)
    final_force = float(traj.forces[-1])
    thr = cfg.dynamics.static_threshold
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
            "final_effective_force": final_force,
            "lock_parameter_sensitive": (
                traj.termination is Termination.LOCKED and thr > 0 and final_force > 1e-4 * thr
            ),
            "dwell_segments": [
                {"t0_s": float(traj.times[i0]), "t1_s": float(traj.times[i1])}
                for i0, i1 in dwell_segments(traj)
            ],
        },
        "oracle": oracle,
        "comparison": compare_trajectory(traj, path, solved.seg),
        "corner_force": solved.corner_stats(cfg.dynamics),
    })
    return ScenarioResult(config=cfg, solved=solved, path=path, trajectory=traj, report=report)


def _echo_config(cfg: ScenarioConfig) -> dict:
    """The config fields a run reads, with their values: the maze source
    in use, and none of the keys that source never reads."""
    _, unread = _unread_keys(cfg)
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if f.name in unread or (f.name in ("maze_file", "generator") and v is None):
            continue
        if isinstance(v, DynamicsParams):
            out[f.name] = dataclasses.asdict(v)
        elif isinstance(v, tuple):
            out[f.name] = list(v)
        else:
            out[f.name] = v
    return out


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """One row per sample, values as repr writes them, written 1024 rows
    at a time. A sample whose x, y, speed and force equal the previous
    one's bit for bit (a pinned droplet) formats only its time and reuses
    the rest of the row before."""
    state = [np.asarray(c, dtype=np.float64) for c in (traj.xs, traj.ys, traj.speeds, traj.forces)]
    repeat = np.ones(len(traj), dtype=bool)
    repeat[:1] = False
    for column in state:
        bits = column.view(np.int64)  # not ==, which takes -0.0 for 0.0
        repeat[1:] &= bits[1:] == bits[:-1]
    with open(path, "w") as f:
        f.write("t_s,x_mm,y_mm,speed_mm_s,force_mag\n")
        for k in range(0, len(traj), 1024):  # 1024 samples' floats alive at a time
            chunk = (c[k : k + 1024].tolist() for c in (traj.times, repeat, *state))
            lines = []
            for t, same, x, y, s, fm in zip(*chunk):
                if not same:
                    rest = f",{x!r},{y!r},{s!r},{fm!r}\n"
                lines.append(f"{t!r}{rest}")
            f.write("".join(lines))


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
    written += result.solved.write_field_files(out, wanted)
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
