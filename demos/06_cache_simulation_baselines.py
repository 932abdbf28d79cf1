"""Replay a synthetic trace through the LLC simulator with every prefetcher.

Trains a small model on a page-skip trace, tunes its threshold, then compares
prefetch accuracy and coverage against the rule-based baselines and the
future-fed oracle. Takes ~40 s.

Run:  python demos/06_cache_simulation_baselines.py
"""

from prefetchlab import (
    AddressConfig,
    BestOffsetPrefetcher,
    CacheConfig,
    LatencyModel,
    ModelConfig,
    ModelPrefetcher,
    NextLinePrefetcher,
    OraclePrefetcher,
    StridePrefetcher,
    TrainConfig,
    generate_trace,
    simulate,
    train,
)
from prefetchlab.datasets import build_datasets
from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import predict
from prefetchlab.throttle import tune_threshold
from prefetchlab.trace import split_trace

addr = AddressConfig()
# delta cycle sums to 94, coprime to the 32 cache sets below, so the stream
# spreads over all sets instead of ping-ponging inside a few
trace = generate_trace({"name": "page_skip", "deltas": [1, 2, 91]}, 12000, seed=5)
split = split_trace(trace, (0.4, 0.1, 0.5))
label_cfg = LabelConfig(look_forward=24, delta_bound=128)
feature_cfg = FeatureConfig("as", 6)

bundle = build_datasets(trace, split, feature_cfg, label_cfg, addr, history_len=9)
model_cfg = ModelConfig(hidden_dim=32, num_heads=2, num_layers=1, output_dim=256,
                        history_len=9, input_dim=10)
view = bundle.train.training_view()
params, _ = train(model_cfg, view.inputs, view.contexts, view.labels,
                  bundle.validation.inputs, bundle.validation.contexts,
                  bundle.validation.labels,
                  TrainConfig(max_epochs=10, batch_size=256, seed=5, patience=3))
conf = predict(params, bundle.validation.inputs, bundle.validation.contexts)
tuned = tune_threshold(conf, bundle.validation.labels)
print(f"tuned threshold {tuned.optimal_threshold:.2f}, "
      f"validation mean degree {tuned.mean_degree:.1f}\n")

cache = CacheConfig(sets=32, ways=8)
prefetchers = {
    "none": None,
    "next_line(2)": NextLinePrefetcher(2, addr),
    "stride": StridePrefetcher(addr_cfg=addr),
    "best_offset": BestOffsetPrefetcher(addr_cfg=addr),
    "model": ModelPrefetcher(params, feature_cfg, label_cfg, addr,
                             threshold=tuned.optimal_threshold),
    "model top-10": ModelPrefetcher(params, feature_cfg, label_cfg, addr, top_k=10),
    "oracle": OraclePrefetcher(trace, addr, window=16),
}

print(f"{'prefetcher':14s} {'accuracy':>9s} {'coverage':>9s} {'issued':>8s} "
      f"{'useful':>8s} {'degree':>7s}")
for name, pf in prefetchers.items():
    r = simulate(trace, pf, cache, LatencyModel(0, "H"), addr)
    print(f"{name:14s} {r.accuracy:9.4f} {r.coverage:9.4f} {r.prefetches_issued:8d} "
          f"{r.useful_prefetches:8d} {r.mean_degree:7.2f}")
