"""Command line entry point.

Exit codes for `simulate`: 0 = droplet reached the target electrode,
2 = locked at a bifurcation, 3 = step budget exhausted. Error classes:
4 = bad config, maze file, or input file of render or compare, any input
file that cannot be read or decoded, or an output that cannot be written,
5 = unsolvable maze (or droplet cannot start), 6 = solver did not converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .dynamics import DynamicsError
from .maze import GeometryError, MazeError, emit_maze, parse_maze, validate_and_components
from .oracle import UnreachableError
from .render import read_field_csv, render_field
from .scenario import (
    EXIT_CONFIG_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_UNSOLVABLE,
    ConfigError,
    ConvergenceError,
    ScenarioConfig,
    UnsolvableMazeError,
    build_maze,
    compare_bundles,
    load_config,
    reject_unread_keys,
    run_and_export,
    run_fields_only,
    run_oracle_only,
)
from .solver import FieldSolveError, VectorField


def _load(config_path: str, seed: int | None) -> ScenarioConfig:
    cfg = load_config(config_path)
    if seed is not None:
        reject_unread_keys(cfg, ["seed"])
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load(args.config, args.seed)
    if cfg.generator is None:
        raise ConfigError("generate needs a config with a generator, not a maze_file")
    maze = build_maze(cfg)
    if not validate_and_components(maze).solvable:
        raise GeometryError("generated maze is not solvable; widen the geometry")
    text = emit_maze(maze)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    cfg = _load(args.config, args.seed)
    report = run_fields_only(cfg, args.out)
    rep = report["solve"]
    print(
        f"solved in {rep['iterations']} iterations, residual {rep['final_residual']:.2e},"
        f" current in/out {rep['current_in']:.6g}/{rep['current_out']:.6g}"
    )
    return 0


def _run_one(config_path: str, cfg: ScenarioConfig, out: str | None) -> int:
    result = run_and_export(cfg, out)
    traj = result.report["trajectory"]
    print(
        f"{config_path}: {traj['termination']} after {traj['steps']} steps"
        f" ({traj['sim_time_s']:.2f} s simulated), corridor match:"
        f" {result.report['comparison']['corridor_sequence_equal']}"
    )
    return result.exit_code


def _cmd_simulate(args) -> int:
    """Run the configs one after another in this process, so configs that
    share a maze solve it once; the highest exit code wins. Nothing runs
    unless every config has an output directory of its own."""
    if len(args.config) == 1:
        return _run_one(args.config[0], _load(args.config[0], args.seed), args.out)
    stems = [Path(path).stem for path in args.config]
    if args.out and len(set(stems)) < len(stems):
        raise ConfigError(f"configs {stems} share a file stem: --out needs one directory each")
    cfgs = [_load(path, args.seed) for path in args.config]
    outs = [
        str(Path(args.out) / stem) if args.out else cfg.out_dir for cfg, stem in zip(cfgs, stems)
    ]
    dests = [Path(out).resolve() for out in outs]
    for k, dest in enumerate(dests):
        if dest in dests[:k]:
            first = args.config[dests.index(dest)]
            raise ConfigError(
                f"configs {first} and {args.config[k]} share the output directory {outs[k]}"
            )
    return max(_run_one(path, cfg, out) for path, cfg, out in zip(args.config, cfgs, outs))


def _cmd_oracle(args) -> int:
    cfg = _load(args.config, args.seed)
    report = run_oracle_only(cfg, args.out)
    oracle = report["oracle"]
    print(
        f"path: {oracle['path_cells']} cells / {oracle['path_length_mm']:.1f} mm;"
        f" streamline matches path: {oracle['streamline_matches_path']}"
    )
    return 0


def _cmd_render(args) -> int:
    if args.style == "overlay" and not args.maze:
        raise ConfigError("render --style overlay needs --maze")
    try:
        field = read_field_csv(args.field)
    except ValueError as exc:
        raise ConfigError(f"{args.field} is not a field CSV: {exc}") from None
    if args.style == "strokes" and not isinstance(field, VectorField):
        raise ConfigError(f"{args.field} holds a scalar field; --style strokes needs a vector one")
    maze = parse_maze(Path(args.maze).read_text()) if args.maze else None
    if maze is not None and (maze.nx, maze.ny) != (field.nx, field.ny):
        raise ConfigError(
            f"{args.maze} is {maze.nx}x{maze.ny} cells, {args.field} {field.nx}x{field.ny}"
        )
    render_field(field, args.out, style=args.style, maze=maze)
    print(f"wrote {args.out}")
    return 0


def _read_report(bundle: str) -> dict:
    """The report.json of a simulate bundle, with the values compare reads."""
    path = Path(bundle) / "report.json"
    try:
        report = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    for section, key, types in (
        ("corner_force", "max", (int, float)),
        ("corner_force", "max_per_ampere", (int, float)),
        ("trajectory", "termination", (str,)),
    ):
        # By type(), as JSON's true and false are Python ints too.
        part = report.get(section) if isinstance(report, dict) else None
        if not isinstance(part, dict) or type(part.get(key)) not in types:
            raise ConfigError(f"{path} is not a simulate report: no valid {section}.{key}")
    return report


def _cmd_compare(args) -> int:
    diff = compare_bundles(_read_report(args.a), _read_report(args.b))
    text = json.dumps(diff, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# Parsing leaves the parser as it was, so one serves every call of main.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropmaze",
        description="Solve electrolyte-filled mazes with a current-following droplet agent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, multi_config=False):
        if multi_config:
            p.add_argument("--config", required=True, nargs="+", help="scenario config file(s)")
        else:
            p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="output directory/file override")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("generate", help="write a generated maze as a maze file")
    add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="solve the fields only and export them")
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="full pipeline: solve, drive the droplet, compare")
    add_common(p, multi_config=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="shortest-path and streamline read-outs only")
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", help="render a field CSV to an image")
    p.add_argument("--field", required=True, help="field CSV produced by solve/simulate")
    p.add_argument("--out", required=True, help="output image path (.pgm)")
    p.add_argument("--style", default="gray", choices=("gray", "strokes", "overlay"))
    p.add_argument("--maze", default=None, help="maze file (needed for overlay style)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("compare", help="diff two exported run bundles (edge study)")
    p.add_argument("--a", required=True, help="bundle directory A (e.g. insulated)")
    p.add_argument("--b", required=True, help="bundle directory B (e.g. coated)")
    p.add_argument("--out", default=None, help="write the diff JSON here instead of stdout")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MazeError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (UnsolvableMazeError, FieldSolveError, DynamicsError, UnreachableError) as exc:
        print(f"unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
