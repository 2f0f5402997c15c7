"""Seeded workload generator for the benchmark.

Each workload is a list of scenario configs written as `key = value` files,
the same format `dropmaze simulate --config` reads. Seed 0 reproduces the
committed example configs; any other seed draws new inputs from a
`random.Random` keyed by workload name and seed, so the same seed always
gives byte-identical config files.

Why the seed varies what it varies: the benchmark's run-to-run spread is
taken across seeds, so a seed must not change how much work a workload
is. On `ring_fine` the cost depends on the maze (corridor lengths, the
droplet's corner dwells), so the geometry stays the committed ring
(seed 1) and the seed draws the drive: electrolyte and
coating conductivity and the applied voltage, with `force_gain` set so the
droplet feels the same force. The solver and the droplet then handle
different numbers on the same problem. On `droplet_sweep` the seed draws
the same drive and shifts each pair's mean branch length, keeping the
pair's difference, the thresholds and the noise: the droplet's outcome
depends on the difference and on the noise sequence, so every seed keeps
the same three locked cases and about the same number of steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# configs/ring_m2.cfg, without its `out` key (the benchmark passes --out).
_RING_M2 = {
    "generator": "ring",
    "rings": 2,
    "gaps_per_ring": "1,1",
    "diameter_mm": 70,
    "channel_width_mm": 4,
    "cell_size_mm": 0.5,
    "seed": 1,
    "voltage": 5.0,
    "static_threshold": 1.9e-3,
    "radius_mm": 1.0,
    "max_steps": 100000,
}

# configs/bifurcation_symmetric.cfg and configs/bifurcation_lock.cfg are
# pairs 1 and 2 of the default sweep.
_DEFAULT_PAIRS = ((40.0, 40.0), (38.0, 42.0), (36.0, 44.0))
# Other seeds shift each pair's mean length by up to this much (mm).
_MEAN_SHIFT_MM = 1.0

# Four droplet settings run on every pair. The noise amplitudes stay far
# below the static threshold (2.2e-3 by default).
_DEFAULT_SETTINGS = (
    ("base", {}),
    ("low_threshold", {"static_threshold": 1.6e-3}),
    ("noise_a", {"noise_amplitude": 7e-4, "noise_seed": 3}),
    ("noise_b", {"noise_amplitude": 9e-4, "noise_seed": 7}),
)


@dataclass(frozen=True)
class Case:
    name: str
    config: dict
    ring: bool  # ring mazes must reproduce the Lee corridor sequence


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple[Case, ...]

    @property
    def reuse_frac(self) -> float:
        """Share of cases whose maze an earlier case already solved."""
        seen: set[str] = set()
        repeats = 0
        for case in self.cases:
            key = _maze_key(case.config)
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.cases)


# Everything that decides the maze and its fields; droplet keys are left out.
_MAZE_KEYS = (
    "generator", "rings", "gaps_per_ring", "diameter_mm", "channel_width_mm",
    "cell_size_mm", "seed", "len_a_mm", "len_b_mm", "voltage", "sigma_electrolyte",
    "sigma_coating", "coat_corners",
)


def _maze_key(config: dict) -> str:
    return repr([(k, config.get(k)) for k in _MAZE_KEYS])


def _drive(rng: random.Random) -> dict:
    """Conductivity and voltage scaled away from the defaults (10 S/m,
    1e5 S/m coating, 5 V), with force_gain undoing the scale on the force."""
    sigma = 10.0 * 2.0 ** rng.uniform(-1.0, 1.0)
    volts = 5.0 * 2.0 ** rng.uniform(-0.5, 0.5)
    return {
        "sigma_electrolyte": sigma,
        "sigma_coating": 1.0e4 * sigma,
        "voltage": volts,
        "force_gain": (10.0 * 5.0) / (sigma * volts),
    }


def _ring_fine(rng: random.Random | None) -> tuple[Case, ...]:
    config = dict(_RING_M2, cell_size_mm=0.25)
    if rng is not None:
        config.update(_drive(rng))
    return (Case("ring_fine", config, ring=True),)


def _droplet_sweep(rng: random.Random | None) -> tuple[Case, ...]:
    if rng is None:
        pairs, settings = _DEFAULT_PAIRS, _DEFAULT_SETTINGS
    else:
        pairs = []
        for a, b in _DEFAULT_PAIRS:
            shift = round(rng.uniform(-_MEAN_SHIFT_MM, _MEAN_SHIFT_MM), 2)
            pairs.append((a + shift, b + shift))
        drive = _drive(rng)
        settings = [(label, dict(droplet, **drive)) for label, droplet in _DEFAULT_SETTINGS]
    cases = []
    for i, (len_a, len_b) in enumerate(pairs, start=1):
        maze = {
            "generator": "bifurcation",
            "len_a_mm": len_a,
            "len_b_mm": len_b,
            "channel_width_mm": 4,
            "start": "axis",
        }
        for label, droplet in settings:
            cases.append(Case(f"pair{i}_{label}", dict(maze, **droplet), ring=False))
    return tuple(cases)


WORKLOADS = {
    "ring_fine": (
        _ring_fine,
        "ring_m2 at 0.25 mm cells (280x280): solver, corner stats, segmentation"
        " and export grow with cell count",
    ),
    "droplet_sweep": (
        _droplet_sweep,
        "12 small bifurcation cases, 3 mazes x 4 droplet settings: droplet stepping"
        " dominates and 9 of 12 cases repeat a solved maze",
    ),
}


def make_workload(name: str, seed: int) -> Workload:
    build, why = WORKLOADS[name]
    rng = None if seed == DEFAULT_SEED else random.Random(f"{name}:{seed}")
    return Workload(name, why, build(rng))


def tiny_workload(seed: int) -> Workload:
    """A ring and a bifurcation at 1 mm cells, for the self-test."""
    rng = random.Random(f"tiny:{seed}")
    ring = dict(_RING_M2, cell_size_mm=1.0, radius_mm=1.5, **_drive(rng))
    bif = {
        "generator": "bifurcation",
        "len_a_mm": 36.0,
        "len_b_mm": 44.0,
        "channel_width_mm": 4,
        "cell_size_mm": 1.0,
        "start": "axis",
    }
    cases = (Case("tiny_ring", ring, ring=True), Case("tiny_bif", bif, ring=False))
    return Workload("tiny", "self-test", cases)


def config_text(config: dict) -> str:
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in config.items())


def write_configs(workload: Workload, directory: Path) -> list[Path]:
    """Write one config file per case; returns the paths in case order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in workload.cases:
        path = directory / f"{case.name}.cfg"
        path.write_text(config_text(case.config))
        paths.append(path)
    return paths
