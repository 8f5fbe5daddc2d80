"""Scene-adaptive selection of compressed classifiers with cached deployment."""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    DatasetSchema,
    GeneratorConfig,
    Sample,
    SplitDataset,
    generate_dataset,
    load_dataset,
    save_dataset,
    synthesize_trace,
)
from .decision import DecisionModel, rank_models, train_decision
from .learners import TrainConfig, VectorClassifier, embed, forward, gradient, predict, train
from .profiling import (
    ModelRepository,
    ProfilingConfig,
    build_repository,
    kmeans,
    macro_f1,
    segment_semantic_scenes,
    train_scene_encoder,
)
from .runtime import ModelCache, TraceMetrics, cache_request, run_trace, summarize
from .sampling import (
    SamplingConfig,
    adaptive_sampling,
    probe_suitability,
    random_sampling,
    thompson_round,
    well_sampled_threshold,
)
