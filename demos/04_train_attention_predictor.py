"""Train the attention predictor on a stride trace and watch it learn the label set.

A stride-3 stream labels every trigger with the same delta set {3, 6, ..., 126},
so a correct pipeline drives micro-F1 toward 1. Takes ~20 s.

Run:  python demos/04_train_attention_predictor.py
"""

from prefetchlab import AddressConfig, ModelConfig, TrainConfig, generate_trace, train
from prefetchlab.datasets import build_datasets
from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import predict
from prefetchlab.throttle import micro_metrics
from prefetchlab.trace import split_trace

addr = AddressConfig()
trace = generate_trace({"name": "stride", "stride": 3}, 20000, seed=1)
split = split_trace(trace, (0.4, 0.1, 0.5))
bundle = build_datasets(trace, split, FeatureConfig("as", 6), LabelConfig(128, 128),
                        addr, history_len=9)

model_cfg = ModelConfig(hidden_dim=32, num_heads=2, num_layers=1, output_dim=256,
                        history_len=9, input_dim=10)
train_view = bundle.train.training_view()
print(f"training on {len(train_view)} samples "
      f"({len(bundle.train) - len(train_view)} empty-label samples excluded)")

params, log = train(
    model_cfg,
    train_view.inputs, train_view.contexts, train_view.labels,
    bundle.validation.inputs, bundle.validation.contexts, bundle.validation.labels,
    TrainConfig(max_epochs=12, batch_size=256, seed=1, patience=3),
)
for entry in log:
    print(f"  epoch {entry.epoch:2d}  train {entry.train_loss:.5f}  "
          f"val {entry.val_loss:.5f}  lr {entry.learning_rate:g}")

conf = predict(params, bundle.test.inputs, bundle.test.contexts)
precision, recall, f1 = micro_metrics(conf >= 0.5, bundle.test.labels)
print(f"\nheld-out micro metrics at threshold 0.5: "
      f"precision={precision:.4f} recall={recall:.4f} F1={f1:.4f}")
print("analytic label set is {3, 6, ..., 126}: 42 deltas per full window")
