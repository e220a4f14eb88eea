"""Guided evolutionary architecture search over a fixed cell space.

Aging evolution where each cycle's candidate children are ranked by a
training-free Jacobian-correlation score and only the top child is trained
(looked up) and admitted. Includes plain evolution and random-search
baselines, tabular and synthetic fitness sources, and a CLI for seeded
experiments.
"""

from .arch_space import (
    EDGES,
    NUM_EDGES,
    NUM_OPS,
    SPACE_SIZE,
    ArchEncoding,
    CellParseError,
    Operation,
    encode_str,
    enumerate_all,
    mutate,
    parse_str,
    random_arch,
)
from .benchmark_store import (
    BenchRecord,
    CalibrationError,
    JsonlFormatError,
    NoisyProxySource,
    OracleProxySource,
    StoreLookupError,
    SyntheticLandscape,
    TabularStore,
    dump_jsonl,
    load_jsonl,
)
from .guided_evolution import (
    EvaluatedModel,
    EvolutionConfig,
    Population,
    SearchResult,
    best_of,
    run_random_baseline,
    run_rea_baseline,
    run_search,
    tournament_select,
)
from .network_builder import (
    MicroNetwork,
    SkeletonConfig,
    build_network,
    jacobian_input_dim,
)
from .zero_proxy import (
    Batch,
    BatchFileError,
    JacobianProxySource,
    ProxyConfig,
    ProxyScore,
    aggregate,
    class_score,
    compute_jacobian,
    correlation_matrix,
    make_batch,
    proxy_rank_key,
    read_batch_file,
    score_architecture,
    split_by_class,
    write_batch_file,
)

__version__ = "0.1.0"
