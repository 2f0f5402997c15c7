"""Maze conduction solver with a rigid-disk droplet agent.

Solves the electric potential in an electrolyte-filled maze, derives the
current-density field, drives a disk-shaped droplet along it, and checks
the emergent route against wavefront shortest paths.
"""

from .maze import (
    CellKind,
    ComponentReport,
    GeometryError,
    MazeError,
    MazeFormatError,
    MazeSpec,
    coat_sharp_corners,
    conductivity_grid,
    convex_corner_cells,
    emit_maze,
    parse_maze,
    validate_and_components,
)
from .generators import (
    BifurcationLayout,
    bifurcation_layout,
    generate_bifurcation_maze,
    generate_ring_maze,
)
from .solver import (
    FieldBundle,
    FieldSolveError,
    Quantity,
    ScalarField,
    SolveReport,
    VectorField,
    VectorQuantity,
    compute_fields,
    conservation,
    current_density,
    face_currents,
    joule_heating,
    maze_dirichlet,
    solve_potential,
)

__version__ = "0.1.0"

from .dynamics import (  # noqa: E402
    DynamicsError,
    DynamicsParams,
    RowSums,
    Termination,
    Trajectory,
    disk_integrate,
    dwell_segments,
    simulate,
)
from .oracle import (  # noqa: E402
    CorridorSegmentation,
    Path,
    Streamline,
    StreamTermination,
    UnreachableError,
    compare_trajectory,
    extract_path,
    lee_label,
    region_sequence,
    segment_corridors,
    streamline,
    trace_route_streamline,
)
from .scenario import (  # noqa: E402
    ConfigError,
    ConvergenceError,
    ScenarioConfig,
    ScenarioResult,
    UnsolvableMazeError,
    corner_force_stats,
    export_bundle,
    load_config,
    parse_config,
    run_and_export,
    run_fields_only,
    run_oracle_only,
    run_scenario,
)
