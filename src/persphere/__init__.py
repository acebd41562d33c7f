"""Topological summaries of point clouds: persistence diagrams, their
probability-density form on the unit sphere of grids, and Wasserstein
matching baselines."""

from .embedding import delay_embed
from .persistence import (
    Filtration,
    FiltrationError,
    PersistenceDiagram,
    build_rips,
    compute_persistence,
    diagram_of_cloud,
    h0_unionfind,
    normalize_diagram,
)
from .density import EmptyDiagramError, PersistencePdf, SqrtDensity, kde, sqrt_transform
from .sphere import (
    PgaModel,
    TangentVector,
    distance,
    exp_map,
    extrinsic_mean,
    geodesic,
    inner,
    log_map,
    pga,
    pga_features,
    project_coords,
)
from .wasserstein import Matching, alexandrov_geodesic, brute_force, wasserstein
from .analysis import (
    BenchReport,
    ConfigurationError,
    DistanceMatrix,
    benchmark,
    distance_matrix,
    knn_classify,
    loo_knn_accuracy,
    loo_regression,
    synthetic_clouds,
)
from .errors import ParseError

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ConfigurationError",
    "DistanceMatrix",
    "EmptyDiagramError",
    "Filtration",
    "FiltrationError",
    "Matching",
    "ParseError",
    "PersistenceDiagram",
    "PersistencePdf",
    "PgaModel",
    "SqrtDensity",
    "TangentVector",
    "alexandrov_geodesic",
    "benchmark",
    "brute_force",
    "build_rips",
    "compute_persistence",
    "delay_embed",
    "diagram_of_cloud",
    "distance",
    "distance_matrix",
    "exp_map",
    "extrinsic_mean",
    "geodesic",
    "h0_unionfind",
    "inner",
    "kde",
    "knn_classify",
    "log_map",
    "loo_knn_accuracy",
    "loo_regression",
    "normalize_diagram",
    "pga",
    "pga_features",
    "project_coords",
    "sqrt_transform",
    "synthetic_clouds",
    "wasserstein",
]
