"""IM-GRN: ad-hoc inference and matching over gene regulatory networks.

A from-scratch reproduction of Lian & Kim, *Efficient Ad-Hoc Graph
Inference and Matching in Biological Databases*, SIGMOD 2017.

Typical usage::

    from repro import (
        EngineConfig, GeneFeatureDatabase, GeneFeatureMatrix, IMGRNEngine,
    )

    database = GeneFeatureDatabase([...])        # l_i x n_i matrices
    engine = IMGRNEngine(database, EngineConfig(num_pivots=2))
    engine.build()                               # pivots + R*-tree + IF
    result = engine.query(query_matrix, gamma=0.5, alpha=0.5)
    print(result.answer_sources(), result.stats.io_accesses)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from .config import (
    DEFAULTS,
    PAPER_GRID,
    BuildConfig,
    DaemonConfig,
    Defaults,
    EngineConfig,
    InferenceConfig,
    ObservabilityConfig,
    ParameterGrid,
    RefineConfig,
    SyntheticConfig,
)
from .adhoc import AdHocMatchEngine, FeatureCollection
from .core import QueryEngine
from .core.baseline import BaselineEngine, LinearScanEngine
from .core.batch_inference import BatchInferenceEngine, EdgeProbabilityCache
from .core.measure_engine import MeasureScanEngine
from .core.measures import (
    MEASURES,
    parametric_edge_probability,
    randomized_measure_matrix,
    randomized_measure_probability,
)
from .core.persistence import (
    load_engine,
    load_engine_sharded,
    save_engine,
    save_engine_sharded,
)
from .core.inference import (
    EdgeProbabilityEstimator,
    edge_probability,
    infer_grn,
    infer_grn_correlation,
    infer_grn_partial_correlation,
)
from .core.matching import Embedding, best_embedding, find_embeddings, matches
from .core.probgraph import ProbabilisticGraph, edge_key
from .core.query import IMGRNAnswer, IMGRNEngine, IMGRNResult
from .core.spec import KINDS, QuerySpec, validate_query_params
from .data.database import GeneFeatureDatabase
from .data.matrix import GeneFeatureMatrix
from .data.noise import add_noise, add_noise_to_database
from .data.organisms import ORGANISMS, OrganismSpec, generate_organism_matrix
from .data.queries import extract_query, generate_query_workload
from .data.synthetic import generate_database, generate_matrix
from .serve import (
    DaemonClient,
    QueryDaemon,
    QueryOutcome,
    QueryServer,
    ServeConfig,
    TransientError,
    serve_in_background,
)
from .obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    get_registry,
    metrics_to_json,
    metrics_to_prometheus,
)
from .errors import (
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyDatabaseError,
    IndexNotBuiltError,
    InternalError,
    ReproError,
    UnknownGeneError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "DEFAULTS",
    "PAPER_GRID",
    "BuildConfig",
    "Defaults",
    "EngineConfig",
    "InferenceConfig",
    "DaemonConfig",
    "ObservabilityConfig",
    "ParameterGrid",
    "RefineConfig",
    "SyntheticConfig",
    "BatchInferenceEngine",
    "EdgeProbabilityCache",
    # graph model & inference
    "ProbabilisticGraph",
    "edge_key",
    "EdgeProbabilityEstimator",
    "edge_probability",
    "infer_grn",
    "infer_grn_correlation",
    "infer_grn_partial_correlation",
    # matching
    "Embedding",
    "best_embedding",
    "find_embeddings",
    "matches",
    # engines
    "QueryEngine",
    "IMGRNAnswer",
    "IMGRNEngine",
    "IMGRNResult",
    "BaselineEngine",
    "LinearScanEngine",
    "MeasureScanEngine",
    "save_engine",
    "load_engine",
    "save_engine_sharded",
    "load_engine_sharded",
    # serving
    "QueryServer",
    "QuerySpec",
    "KINDS",
    "validate_query_params",
    "QueryOutcome",
    "ServeConfig",
    "TransientError",
    "QueryDaemon",
    "DaemonClient",
    "serve_in_background",
    # generalizations (Appendix A / future work)
    "AdHocMatchEngine",
    "FeatureCollection",
    "MEASURES",
    "randomized_measure_probability",
    "randomized_measure_matrix",
    "parametric_edge_probability",
    # data
    "GeneFeatureDatabase",
    "GeneFeatureMatrix",
    "add_noise",
    "add_noise_to_database",
    "ORGANISMS",
    "OrganismSpec",
    "generate_organism_matrix",
    "extract_query",
    "generate_query_workload",
    "generate_database",
    "generate_matrix",
    # observability
    "MetricsRegistry",
    "Tracer",
    "get_registry",
    "chrome_trace",
    "metrics_to_json",
    "metrics_to_prometheus",
    # errors
    "ReproError",
    "ValidationError",
    "DimensionMismatchError",
    "DegenerateVectorError",
    "EmptyDatabaseError",
    "UnknownGeneError",
    "IndexNotBuiltError",
    "InternalError",
]
