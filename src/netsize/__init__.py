"""netsize: one-step population-size estimation for sampled networks.

A simulation library for estimating the size of a networked population
from a single sample: uniform vertex samples, peer-referral samples, and
anonymized (hash-coded) referral samples.  Ships the synthetic graph
families, the referral-capture simulator, and a Monte-Carlo harness used
to validate the estimators, plus ingestion for real edge lists.
"""

__version__ = "0.1.0"

from .estimators import (
    EstimateResult,
    FailureCause,
    estimate_n1,
    estimate_n1_from_view,
    estimate_n2,
    estimate_n3,
)
from .generators import (
    Family,
    barabasi_albert,
    configuration_graph,
    erdos_renyi,
    rewire_to_clustering,
    sample_degrees,
    sample_graph,
)
from .graph import (
    MultiGraph,
    cross_seed_matches,
    free_ends,
    free_neighborhood,
    harmonic_mean_degree,
    matches,
    mean_degree,
)
from .harness import (
    ExperimentPlan,
    SummaryRow,
    derive_rng,
    failure_curve,
    parse_plan,
    run_plan,
    summarize,
)
from .hashing import (
    HashMode,
    HashSpace,
    HashedSample,
    assign_hashes,
    collision_prob,
    estimate_n2_hashed,
    estimate_n3_hashed,
    hashed_view,
    m_hat,
    telefunken_encode,
    x_hat,
)
from .ingest import EdgeListSpec, clustering_stats, load_edge_list, write_edge_list
from .sampling import RdsConfig, Sample, as_sample_view, rds_capture, uniform_sample

__all__ = [
    "__version__",
    "MultiGraph", "mean_degree", "harmonic_mean_degree",
    "free_neighborhood", "free_ends", "matches", "cross_seed_matches",
    "Family", "sample_degrees", "configuration_graph", "barabasi_albert", "erdos_renyi",
    "sample_graph", "rewire_to_clustering",
    "RdsConfig", "Sample", "uniform_sample", "rds_capture", "as_sample_view",
    "EstimateResult", "FailureCause",
    "estimate_n1", "estimate_n1_from_view", "estimate_n2", "estimate_n3",
    "HashMode", "HashSpace", "HashedSample", "telefunken_encode", "assign_hashes",
    "hashed_view", "collision_prob", "m_hat", "x_hat",
    "estimate_n2_hashed", "estimate_n3_hashed",
    "ExperimentPlan", "SummaryRow", "run_plan", "summarize", "failure_curve",
    "derive_rng", "parse_plan",
    "EdgeListSpec", "load_edge_list", "write_edge_list", "clustering_stats",
]
