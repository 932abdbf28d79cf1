"""Experiment orchestration: config, stages, manifests, reports.

Every stage reads its configuration plus upstream artifacts from a run
directory, writes its outputs and a manifest (config hash, input/output hashes,
package version), and is deterministic given config + seed, so rerunning a
stage reproduces byte-identical artifacts. Run directories are content-addressed
by config hash; a manifest whose hash disagrees with the current config makes
downstream stages fail with a staleness error instead of silently mixing
experiments.

Stages: gen, preprocess, train, tune, eval, simulate, sweep, report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from prefetchlab import __version__ as PACKAGE_VERSION
from prefetchlab import plots
from prefetchlab.datasets import LabeledDataset, build_datasets, mean_cycles_per_access
from prefetchlab.features import FeatureConfig, TokenDictionary
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import ModelConfig, ModelParams, TrainConfig, TrainingError, predict, train
from prefetchlab.simulator import (
    BestOffsetPrefetcher,
    CacheConfig,
    LatencyModel,
    MissTimeline,
    ModelPrefetcher,
    NextLinePrefetcher,
    StridePrefetcher,
    simulate,
)
from prefetchlab.throttle import ThresholdReport, micro_metrics, tune_threshold
from prefetchlab.trace import (
    AddressConfig, SplitError, check_split_ratios, generate_trace, read_trace, split_trace, write_trace
)

STAGES = ("gen", "preprocess", "train", "tune", "eval", "simulate", "sweep", "report")


class ConfigError(Exception):
    """The experiment configuration is malformed or inconsistent."""


class StageDependencyError(Exception):
    """An upstream artifact needed by the requested stage is missing."""


class StaleArtifactsError(Exception):
    """An upstream artifact was produced under a different configuration."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TraceSource:
    source: str = "generate"          # "generate" | "file"
    pattern: dict = field(default_factory=lambda: {"name": "stride", "stride": 3})
    length: int = 20000
    path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.source not in ("generate", "file"):
            raise ConfigError(f"trace.source must be 'generate' or 'file', got {self.source!r}")
        if self.source == "file" and not self.path:
            raise ConfigError("trace.source 'file' needs trace.path")
        if not _is_int(self.length) or self.length < 1:
            raise ConfigError(f"trace.length must be a positive integer, got {self.length!r}")


@dataclass(frozen=True)
class ThresholdConfig:
    grid_step: float = 0.01
    max_degree: int | None = None


@dataclass(frozen=True)
class SweepConfig:
    latencies: tuple = (0, 50, 100, 200)
    throughputs: tuple = ("L", "H")
    distance: tuple = (True, False)


@dataclass(frozen=True)
class SimulateConfig:
    prefetchers: tuple = ("model",)
    top_k: int | None = None          # top-k mode for the model prefetcher; None = threshold
    timeline_interval: int | None = None  # per-interval miss-rate rows, None disables
    next_line_degree: int = 2
    stride_table_size: int = 256
    stride_confirm: int = 2
    stride_degree: int = 1
    best_offset_round_length: int = 4
    best_offset_score_threshold: int = 2


@dataclass(frozen=True)
class ModelDims:
    hidden_dim: int = 128
    num_heads: int = 4
    num_layers: int = 2
    ffn_mult: int = 2
    use_context: bool = True
    history_len: int = 9


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    address: AddressConfig = field(default_factory=AddressConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    label: LabelConfig = field(default_factory=LabelConfig)
    model: ModelDims = field(default_factory=ModelDims)
    train: dict = field(default_factory=dict)         # TrainConfig overrides
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    latency: LatencyModel = field(default_factory=LatencyModel)
    trace: TraceSource = field(default_factory=TraceSource)
    split: tuple = (0.4, 0.1, 0.5)
    trigger_stream: str = "access"
    eval_modes: tuple = ()            # extra FeatureConfigs for the input ablation
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def model_config(self, feature_cfg: FeatureConfig | None = None) -> ModelConfig:
        fc = feature_cfg or self.features
        return ModelConfig(
            hidden_dim=self.model.hidden_dim,
            num_heads=self.model.num_heads,
            num_layers=self.model.num_layers,
            output_dim=self.label.bitmap_size,
            history_len=self.model.history_len,
            input_dim=fc.input_dim(self.address),
            ffn_mult=self.model.ffn_mult,
            use_context=self.model.use_context,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.seed, **self.train)

    def all_feature_modes(self) -> list[FeatureConfig]:
        """Primary mode first, then any distinct ablation modes."""
        modes = [self.features]
        for fc in self.eval_modes:
            if fc not in modes:
                modes.append(fc)
        return modes

    def validate(self) -> "ExperimentConfig":
        """Cross-field consistency; called before any stage runs."""
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        try:
            check_split_ratios(self.split)
        except SplitError as exc:
            raise ConfigError(f"split: {exc}") from None
        if self.trigger_stream not in ("access", "miss"):
            raise ConfigError(f"trigger_stream must be 'access' or 'miss', got {self.trigger_stream!r}")
        try:
            for fc in self.all_feature_modes():
                self.model_config(fc)  # checks divisibility and derived input dims
            self.train_config()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        for t in self.sweep.latencies:
            if t < 0:
                raise ConfigError("sweep latencies must be >= 0")
        for thr in self.sweep.throughputs:
            if thr not in ("L", "H"):
                raise ConfigError(f"sweep throughput {thr!r} not in ('L', 'H')")
        known = {"model", "next_line", "stride", "best_offset"}
        for name in self.simulate.prefetchers:
            if name not in known:
                raise ConfigError(f"unknown prefetcher {name!r} (known: {sorted(known)})")
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["eval_modes"] = [asdict(fc) for fc in self.eval_modes]
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        builders = {
            "address": AddressConfig,
            "features": FeatureConfig,
            "label": LabelConfig,
            "model": ModelDims,
            "threshold": ThresholdConfig,
            "cache": CacheConfig,
            "latency": LatencyModel,
            "trace": TraceSource,
            "simulate": SimulateConfig,
            "sweep": SweepConfig,
        }
        kwargs = {}
        for key, value in raw.items():
            if key in builders:
                kwargs[key] = _build(builders[key], value, key)
            elif key == "eval_modes":
                kwargs[key] = tuple(_build(FeatureConfig, m, "eval_modes") for m in value)
            elif key == "split":
                kwargs[key] = tuple(value) if isinstance(value, list) else value
            elif key in ("seed", "train", "trigger_stream"):
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg = cls(**kwargs)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        return cfg.validate()


def _build(cls, value: dict, where: str):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    try:
        # tuples round-trip as lists through JSON
        fixed = {k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}
        return cls(**fixed)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    raw = _read_json(path)
    if seed_override is not None:
        raw["seed"] = seed_override
    return ExperimentConfig.from_dict(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def mode_tag(fc: FeatureConfig) -> str:
    return f"as{fc.segment_bits}" if fc.mode == "as" else fc.mode


# ---------------------------------------------------------------------------
# Manifests and artifact plumbing
# ---------------------------------------------------------------------------


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, obj):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_path(run_dir, stage) -> str:
    return os.path.join(run_dir, f"manifest_{stage}.json")


def _write_manifest(run_dir, stage, cfg, inputs: dict, outputs: list[str]) -> dict:
    manifest = {
        "stage": stage,
        "config_hash": config_hash(cfg),
        "package_version": PACKAGE_VERSION,
        "inputs": inputs,
        "outputs": {name: _sha256_file(os.path.join(run_dir, name)) for name in sorted(outputs)},
    }
    _write_json(_manifest_path(run_dir, stage), manifest)
    return manifest


def _require_stage(run_dir, stage, cfg) -> dict:
    path = _manifest_path(run_dir, stage)
    if not os.path.exists(path):
        raise StageDependencyError(f"stage '{stage}' has not produced artifacts in {run_dir}")
    manifest = _read_json(path)
    if manifest.get("config_hash") != config_hash(cfg):
        raise StaleArtifactsError(
            f"artifacts of stage '{stage}' were built under config {manifest.get('config_hash')!r}, "
            f"current config is {config_hash(cfg)!r}"
        )
    return manifest


def _load_trace(cfg: ExperimentConfig, run_dir, inputs: dict):
    if cfg.trace.source == "file":
        inputs[cfg.trace.path] = _sha256_file(cfg.trace.path)
        return read_trace(cfg.trace.path, cfg.trace.format)
    _require_stage(run_dir, "gen", cfg)
    path = os.path.join(run_dir, "trace.csv.gz")
    inputs["trace.csv.gz"] = _sha256_file(path)
    return read_trace(path)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_gen(cfg: ExperimentConfig, run_dir) -> dict:
    if cfg.trace.source != "generate":
        raise ConfigError("gen stage needs trace.source == 'generate'")
    trace = generate_trace(cfg.trace.pattern, cfg.trace.length, cfg.seed, cfg.address)
    write_trace(os.path.join(run_dir, "trace.csv.gz"), trace)
    return _write_manifest(run_dir, "gen", cfg, {}, ["trace.csv.gz"])


def _dataset_paths(tag: str) -> dict:
    return {part: f"dataset_{tag}_{part}.bin" for part in ("train", "validation", "test")}


def stage_preprocess(cfg: ExperimentConfig, run_dir) -> dict:
    inputs: dict = {}
    trace = _load_trace(cfg, run_dir, inputs)
    split = split_trace(trace, cfg.split)
    outputs = ["split.json", "dictionaries.json", "preprocess_meta.json"]
    dict_report = {}
    for fc in cfg.all_feature_modes():
        tag = mode_tag(fc)
        bundle = build_datasets(
            trace, split, fc, cfg.label, cfg.address, cfg.model.history_len
        )
        for part, path in _dataset_paths(tag).items():
            getattr(bundle, part).save(os.path.join(run_dir, path))
            outputs.append(path)
        dict_report[tag] = {
            "entries": bundle.dictionary_sizes(),
            "pairs": {name: d.to_pairs() for name, d in bundle.dictionaries.items()},
        }
    _write_json(os.path.join(run_dir, "split.json"), split.as_dict())
    _write_json(os.path.join(run_dir, "dictionaries.json"), dict_report)
    _write_json(
        os.path.join(run_dir, "preprocess_meta.json"),
        {
            "records": len(trace),
            "mean_cycles_per_access_train": mean_cycles_per_access(trace, split.train),
        },
    )
    return _write_manifest(run_dir, "preprocess", cfg, inputs, outputs)


def _load_bundle(run_dir, tag: str) -> dict[str, LabeledDataset]:
    return {
        part: LabeledDataset.load(os.path.join(run_dir, path))
        for part, path in _dataset_paths(tag).items()
    }


def _fit(cfg: ExperimentConfig, fc: FeatureConfig, train_ds: LabeledDataset, val_ds: LabeledDataset):
    """Train on the labeled training samples. The params come back through the
    checkpoint codec, so every stage runs the float32 weights ``model.ckpt`` stores."""
    model_cfg = cfg.model_config(fc)
    train_ds = train_ds.training_view()
    ctx = train_ds.contexts if model_cfg.use_context else None
    vctx = val_ds.contexts if model_cfg.use_context else None
    params, log = train(
        model_cfg,
        train_ds.inputs, ctx, train_ds.labels,
        val_ds.inputs, vctx, val_ds.labels,
        cfg.train_config(),
    )
    return ModelParams.decode(params.encode()), log


def stage_train(cfg: ExperimentConfig, run_dir) -> dict:
    manifest = _require_stage(run_dir, "preprocess", cfg)
    tag = mode_tag(cfg.features)
    bundle = _load_bundle(run_dir, tag)
    params, log = _fit(cfg, cfg.features, bundle["train"], bundle["validation"])
    params.save(os.path.join(run_dir, "model.ckpt"))
    _write_csv(os.path.join(run_dir, "training_log.csv"), ["epoch", "train_loss", "val_loss", "lr"],
               ((e.epoch, e.train_loss, e.val_loss, e.learning_rate) for e in log))
    inputs = {p: manifest["outputs"][p] for p in _dataset_paths(tag).values()}
    return _write_manifest(run_dir, "train", cfg, inputs, ["model.ckpt", "training_log.csv"])


def _batched_predict(params, ds: LabeledDataset, batch: int = 512) -> np.ndarray:
    out = np.empty((len(ds), params.cfg.output_dim))
    ctx = ds.contexts if params.cfg.use_context else None
    for lo in range(0, len(ds), batch):
        hi = min(lo + batch, len(ds))
        out[lo:hi] = predict(params, ds.inputs[lo:hi], None if ctx is None else ctx[lo:hi])
    return out


def _tune(cfg: ExperimentConfig, params: ModelParams, val: LabeledDataset) -> ThresholdReport:
    """F1-optimal threshold of ``params`` on the validation samples."""
    conf = _batched_predict(params, val)
    return tune_threshold(conf, val.labels, cfg.threshold.grid_step, cfg.threshold.max_degree)


def stage_tune(cfg: ExperimentConfig, run_dir) -> dict:
    _require_stage(run_dir, "preprocess", cfg)
    train_manifest = _require_stage(run_dir, "train", cfg)
    params = ModelParams.load(os.path.join(run_dir, "model.ckpt"))
    val = _load_bundle(run_dir, mode_tag(cfg.features))["validation"]
    report = _tune(cfg, params, val)
    _write_json(os.path.join(run_dir, "threshold.json"), report.to_dict())
    _write_csv(os.path.join(run_dir, "threshold_grid.csv"), ["threshold", "precision", "recall", "f1"],
               report.grid)
    inputs = {"model.ckpt": train_manifest["outputs"]["model.ckpt"]}
    return _write_manifest(run_dir, "tune", cfg, inputs, ["threshold.json", "threshold_grid.csv"])


def stage_eval(cfg: ExperimentConfig, run_dir) -> dict:
    """Input-mode ablation: train, tune, and score one model per feature mode."""
    manifest = _require_stage(run_dir, "preprocess", cfg)
    dict_report = _read_json(os.path.join(run_dir, "dictionaries.json"))
    rows = []
    outputs = ["eval_metrics.json", "eval_metrics.csv"]
    inputs: dict = {}
    for fc in cfg.all_feature_modes():
        tag = mode_tag(fc)
        bundle = _load_bundle(run_dir, tag)
        for p in _dataset_paths(tag).values():
            inputs[p] = manifest["outputs"][p]
        reused_main = False
        if fc == cfg.features and os.path.exists(_manifest_path(run_dir, "train")):
            # a shortcut only: model.ckpt holds the weights _fit would return
            _require_stage(run_dir, "train", cfg)
            params = ModelParams.load(os.path.join(run_dir, "model.ckpt"))
            reused_main = True
        else:
            params, _ = _fit(cfg, fc, bundle["train"], bundle["validation"])
            ckpt = f"eval_model_{tag}.ckpt"
            params.save(os.path.join(run_dir, ckpt))
            outputs.append(ckpt)
        tuned = _tune(cfg, params, bundle["validation"])
        test_conf = _batched_predict(params, bundle["test"])
        precision, recall, f1 = micro_metrics(test_conf >= tuned.optimal_threshold, bundle["test"].labels)
        entries = dict_report[tag]["entries"]
        rows.append({
            "mode": tag,
            "input_dim": fc.input_dim(cfg.address),
            "dictionary_entries": sum(entries.values()) if entries else 0,
            "threshold": tuned.optimal_threshold,
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "reused_main_model": reused_main,
        })
    _write_json(os.path.join(run_dir, "eval_metrics.json"), {"modes": rows})
    _write_csv(os.path.join(run_dir, "eval_metrics.csv"), list(rows[0]), (r.values() for r in rows))
    return _write_manifest(run_dir, "eval", cfg, inputs, outputs)


def _load_primary_dictionary(cfg, run_dir) -> TokenDictionary | None:
    if not cfg.features.needs_dictionary:
        return None
    pairs_by_name = _read_json(os.path.join(run_dir, "dictionaries.json"))[mode_tag(cfg.features)]["pairs"]
    return TokenDictionary.from_pairs(next(iter(pairs_by_name.values())), cfg.features.dictionary_capacity)


def _build_prefetcher(name, cfg: ExperimentConfig, run_dir, threshold):
    sim = cfg.simulate
    if name == "next_line":
        return NextLinePrefetcher(sim.next_line_degree, cfg.address)
    if name == "stride":
        return StridePrefetcher(sim.stride_table_size, sim.stride_confirm, sim.stride_degree, cfg.address)
    if name == "best_offset":
        return BestOffsetPrefetcher(
            round_length=sim.best_offset_round_length,
            score_threshold=sim.best_offset_score_threshold,
            addr_cfg=cfg.address,
        )
    params = ModelParams.load(os.path.join(run_dir, "model.ckpt"))
    return ModelPrefetcher(
        params, cfg.features, cfg.label, cfg.address,
        threshold=None if sim.top_k is not None else threshold,
        top_k=sim.top_k,
        dictionary=_load_primary_dictionary(cfg, run_dir),
    )


def stage_simulate(cfg: ExperimentConfig, run_dir) -> dict:
    inputs: dict = {}
    trace = _load_trace(cfg, run_dir, inputs)
    threshold = 0.5
    if "model" in cfg.simulate.prefetchers:
        train_manifest = _require_stage(run_dir, "train", cfg)
        inputs["model.ckpt"] = train_manifest["outputs"]["model.ckpt"]
        if cfg.simulate.top_k is None:
            _require_stage(run_dir, "tune", cfg)
            threshold = _read_json(os.path.join(run_dir, "threshold.json"))["optimal_threshold"]
    reports = {}
    outputs = ["sim_reports.json", "degree_hist.csv"]
    interval = cfg.simulate.timeline_interval
    for name in cfg.simulate.prefetchers:
        pf = _build_prefetcher(name, cfg, run_dir, threshold)
        timeline = None if interval is None else MissTimeline(len(trace), interval)
        report = simulate(
            trace, pf, cfg.cache, cfg.latency, cfg.address, cfg.trigger_stream, event_log=timeline
        )
        reports[name] = report.to_dict()
        if timeline is not None:
            path = f"miss_timeline_{name}.csv"
            _write_csv(os.path.join(run_dir, path), ["access", "misses", "miss_rate"],
                       timeline.rows())
            outputs.append(path)
    _write_json(os.path.join(run_dir, "sim_reports.json"), reports)
    hist_source = "model" if "model" in reports else next(iter(reports))
    _write_csv(os.path.join(run_dir, "degree_hist.csv"), ["degree", "count"],
               sorted(reports[hist_source]["degree_hist"].items(), key=lambda kv: int(kv[0])))
    return _write_manifest(run_dir, "simulate", cfg, inputs, outputs)


def stage_sweep(cfg: ExperimentConfig, run_dir) -> dict:
    """Latency sweep: retrain with distance labels per unique skip, simulate every
    (latency, throughput, distance) combination."""
    inputs: dict = {}
    trace = _load_trace(cfg, run_dir, inputs)
    split = split_trace(trace, cfg.split)
    cpa = mean_cycles_per_access(trace, split.train)

    combos = []
    for dp in cfg.sweep.distance:
        for t in cfg.sweep.latencies:
            skip = math.ceil(t / cpa) if dp else 0
            combos.append((bool(dp), int(t), skip))
    trained: dict[int, tuple] = {}
    for _, _, skip in combos:
        if skip in trained:
            continue
        label_cfg = replace(cfg.label, skip=skip)
        bundle = build_datasets(
            trace, split, cfg.features, label_cfg, cfg.address, cfg.model.history_len
        )
        if not bundle.train.nonempty_mask.any():
            raise TrainingError(
                f"distance labeling with skip={skip} accesses leaves no in-bound "
                f"deltas on this trace (look_forward={cfg.label.look_forward}, "
                f"bound +-{cfg.label.delta_bound}); lower the sweep latencies or "
                f"widen the bound"
            )
        params, _ = _fit(cfg, cfg.features, bundle.train, bundle.validation)
        threshold = _tune(cfg, params, bundle.validation).optimal_threshold
        trained[skip] = (params, threshold, bundle.dictionaries)

    rows = []
    reports = {}
    for dp, t, skip in combos:
        params, threshold, dictionaries = trained[skip]
        pf = ModelPrefetcher(
            params, cfg.features, replace(cfg.label, skip=skip), cfg.address,
            threshold=threshold,
            dictionary=next(iter(dictionaries.values())) if dictionaries else None,
        )
        for thr in cfg.sweep.throughputs:
            report = simulate(
                trace, pf, cfg.cache, LatencyModel(t, thr), cfg.address, cfg.trigger_stream
            )
            key = f"T{t}_{thr}_{'dp' if dp else 'nodp'}"
            reports[key] = report.to_dict()
            rows.append({
                "latency_cycles": t,
                "throughput": thr,
                "distance": int(dp),
                "skip_accesses": skip,
                "threshold": threshold,
                "coverage": report.coverage,
                "accuracy": report.accuracy,
                "issued": report.prefetches_issued,
                "useful": report.useful_prefetches,
                "late": report.late_prefetches,
                "mean_degree": report.mean_degree,
            })
    _write_json(os.path.join(run_dir, "sweep_reports.json"), reports)
    _write_csv(os.path.join(run_dir, "sweep_comparison.csv"), list(rows[0]), (r.values() for r in rows))
    return _write_manifest(run_dir, "sweep", cfg, inputs, ["sweep_reports.json", "sweep_comparison.csv"])


def stage_report(cfg: ExperimentConfig, run_dir) -> dict:
    """Aggregate stage artifacts into one summary plus SVG plots.

    Reads only artifacts written by earlier stages, never the raw trace."""
    _require_stage(run_dir, "tune", cfg)
    _require_stage(run_dir, "simulate", cfg)
    summary = {"config_hash": config_hash(cfg)}
    outputs = ["summary.json", "threshold_f1.svg", "degree_hist.svg", "coverage_accuracy.svg"]

    threshold_report = _read_json(os.path.join(run_dir, "threshold.json"))
    summary["threshold"] = {
        "optimal_threshold": threshold_report["optimal_threshold"],
        "mean_degree": threshold_report["mean_degree"],
    }
    grid = threshold_report["grid"]
    plots.svg_line_chart(
        {"micro F1": [(row[0], row[3]) for row in grid],
         "precision": [(row[0], row[1]) for row in grid],
         "recall": [(row[0], row[2]) for row in grid]},
        os.path.join(run_dir, "threshold_f1.svg"),
        "Threshold sweep on the validation split", "threshold", "metric",
    )

    sim_reports = _read_json(os.path.join(run_dir, "sim_reports.json"))
    summary["simulation"] = {
        name: {k: r[k] for k in ("accuracy", "coverage", "demand_misses", "prefetches_issued",
                                 "useful_prefetches", "mean_degree")}
        for name, r in sim_reports.items()
    }
    names = sorted(sim_reports)
    plots.svg_bar_chart(
        names,
        {"accuracy": [sim_reports[n]["accuracy"] for n in names],
         "coverage": [sim_reports[n]["coverage"] for n in names]},
        os.path.join(run_dir, "coverage_accuracy.svg"),
        "Prefetch accuracy and coverage", "value",
    )
    hist_source = "model" if "model" in sim_reports else names[0]
    hist = {int(k): v for k, v in sim_reports[hist_source]["degree_hist"].items()}
    degrees = sorted(hist)
    plots.svg_bar_chart(
        [str(d) for d in degrees],
        {"triggers": [hist[d] for d in degrees]},
        os.path.join(run_dir, "degree_hist.svg"),
        f"Prefetch degree histogram ({hist_source})", "trigger count",
    )

    if os.path.exists(_manifest_path(run_dir, "eval")):
        _require_stage(run_dir, "eval", cfg)
        summary["input_ablation"] = _read_json(os.path.join(run_dir, "eval_metrics.json"))["modes"]
    if os.path.exists(_manifest_path(run_dir, "train")):
        _require_stage(run_dir, "train", cfg)
        with open(os.path.join(run_dir, "training_log.csv")) as fh:
            final = list(csv.DictReader(fh))[-1]
        summary["training"] = {k: float(v) for k, v in final.items()}
    if os.path.exists(_manifest_path(run_dir, "sweep")):
        _require_stage(run_dir, "sweep", cfg)
        with open(os.path.join(run_dir, "sweep_comparison.csv")) as fh:
            sweep_rows = list(csv.DictReader(fh))
        summary["sweep"] = sweep_rows
        series: dict[str, list] = {}
        for row in sweep_rows:
            key = f"{row['throughput']}/{'DP' if row['distance'] == '1' else 'noDP'}"
            series.setdefault(key, []).append((float(row["latency_cycles"]), float(row["coverage"])))
        for pts in series.values():
            pts.sort()
        plots.svg_line_chart(
            series, os.path.join(run_dir, "sweep.svg"),
            "Coverage vs induced latency", "induced latency (cycles)", "coverage",
        )
        outputs.append("sweep.svg")

    _write_json(os.path.join(run_dir, "summary.json"), summary)
    return _write_manifest(run_dir, "report", cfg, {}, outputs)


_STAGE_FUNCS = {
    "gen": stage_gen,
    "preprocess": stage_preprocess,
    "train": stage_train,
    "tune": stage_tune,
    "eval": stage_eval,
    "simulate": stage_simulate,
    "sweep": stage_sweep,
    "report": stage_report,
}


def run_stage(stage: str, cfg: ExperimentConfig, run_dir) -> dict:
    """Validate config, run one stage, and return its manifest."""
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r} (stages: {', '.join(STAGES)})")
    cfg.validate()
    os.makedirs(run_dir, exist_ok=True)
    return _STAGE_FUNCS[stage](cfg, run_dir)
