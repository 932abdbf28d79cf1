"""prefetchlab: a trace-driven laboratory for ML-based variable-degree data prefetching.

The package covers the whole experimental loop on one machine:

* synthetic and file-based memory access traces (:mod:`prefetchlab.trace`)
* model input construction, including fine-grained address segmentation
  (:mod:`prefetchlab.features`)
* delta-bitmap labels and their inverse mapping (:mod:`prefetchlab.labeling`)
* an attention-based multi-label predictor with its own autodiff core
  (:mod:`prefetchlab.model`, :mod:`prefetchlab.autodiff`)
* F1-optimal threshold throttling (:mod:`prefetchlab.throttle`)
* a set-associative LLC simulator with rule-based baseline prefetchers
  (:mod:`prefetchlab.simulator`)
* experiment orchestration with reproducible run directories
  (:mod:`prefetchlab.pipeline`, :mod:`prefetchlab.cli`)
"""

from prefetchlab.trace import (
    AddressConfig,
    MemoryAccess,
    TraceSplit,
    block_address,
    generate_trace,
    read_trace,
    split_trace,
    write_trace,
)
from prefetchlab.features import (
    FeatureConfig,
    SegmentationConfig,
    SegmentedAddress,
    TokenDictionary,
    desegment,
    page_distance_context,
    pc_context,
    segment_address,
    tokenize,
)
from prefetchlab.labeling import (
    LabelConfig,
    bitmap_to_deltas,
    collect_future_deltas,
    deltas_to_bitmap,
    prefetch_addresses,
)
from prefetchlab.model import (
    LatencyCosts,
    ModelConfig,
    ModelParams,
    TrainConfig,
    bce_loss,
    estimate_latency,
    forward,
    gradient_check,
    train,
)
from prefetchlab.throttle import ThresholdReport, binarize, set_metrics, tune_threshold
from prefetchlab.simulator import (
    BestOffsetPrefetcher,
    CacheConfig,
    LatencyModel,
    ModelPrefetcher,
    NextLinePrefetcher,
    OraclePrefetcher,
    SimReport,
    StridePrefetcher,
    simulate,
)

__version__ = "0.1.0"
