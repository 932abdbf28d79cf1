"""Distance prefetching vs induced inference latency.

Trains one model with plain labels and one with distance labels (the label
window skipped past the latency horizon), then sweeps the induced latency under
the low-throughput bound. Distance labeling keeps coverage up where the plain
model's predictions arrive too late. Takes ~60 s.

Run:  python demos/07_distance_prefetch_sweep.py
"""

import math

from prefetchlab import AddressConfig, CacheConfig, LatencyModel, ModelConfig, ModelPrefetcher, TrainConfig, generate_trace, simulate, train
from prefetchlab.datasets import build_datasets, mean_cycles_per_access
from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import predict
from prefetchlab.throttle import tune_threshold
from prefetchlab.trace import split_trace

addr = AddressConfig()
feature_cfg = FeatureConfig("as", 6)
cache = CacheConfig(sets=64, ways=16)
latencies = [0, 50, 100, 200]

trace = generate_trace({"name": "stride", "stride": 3, "cycle_step": 25,
                        "start_block": 1 << 21}, 8000, seed=9)
split = split_trace(trace, (0.4, 0.1, 0.5))
cpa = mean_cycles_per_access(trace, split.train)
print(f"trace: stride-3, {cpa:.0f} cycles/access; latency T converts to "
      f"a label skip of ceil(T/{cpa:.0f}) accesses\n")


def build_model(skip, seed=9):
    label_cfg = LabelConfig(look_forward=10, delta_bound=128, skip=skip)
    bundle = build_datasets(trace, split, feature_cfg, label_cfg, addr, history_len=4)
    model_cfg = ModelConfig(hidden_dim=16, num_heads=2, num_layers=1, output_dim=256,
                            history_len=4, input_dim=10)
    view = bundle.train.training_view()
    params, _ = train(model_cfg, view.inputs, view.contexts, view.labels,
                      cfg=TrainConfig(max_epochs=6, batch_size=256, seed=seed, patience=None))
    conf = predict(params, bundle.validation.inputs, bundle.validation.contexts)
    tuned = tune_threshold(conf, bundle.validation.labels, grid_step=0.05)
    return params, tuned.optimal_threshold, label_cfg


plain = build_model(skip=0)
distance_models = {t: (build_model(skip=math.ceil(t / cpa)) if t else plain)
                   for t in latencies}

print(f"{'T (cycles)':>10s} {'throughput':>10s} {'plain cov':>10s} {'distance cov':>13s}")
for throughput in ("L", "H"):
    for t in latencies:
        def coverage(model):
            params, threshold, label_cfg = model
            pf = ModelPrefetcher(params, feature_cfg, label_cfg, addr, threshold=threshold)
            return simulate(trace, pf, cache, LatencyModel(t, throughput), addr).coverage
        print(f"{t:10d} {throughput:>10s} {coverage(plain):10.4f} "
              f"{coverage(distance_models[t]):13.4f}")
