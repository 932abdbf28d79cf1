"""Experiment orchestration: config, stages, manifests, reports.

Every stage reads its configuration plus upstream artifacts from a run
directory, writes its outputs and a manifest (config hash, input/output hashes,
package version, and a digest of the rest), and is deterministic given config +
seed, so rerunning a stage reproduces byte-identical artifacts. Run directories
are content-addressed by config hash. A stage takes each upstream artifact
through ``_Run.read``, which fails with a staleness error when the producing
manifest does not match its digest, names another stage or config, or the file
no longer matches the hash that manifest recorded, instead of silently mixing
experiments. Outputs land atomically, manifest last.

Stages: gen, preprocess, train, tune, eval, simulate, sweep, report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, replace

from prefetchlab import __version__ as PACKAGE_VERSION
from prefetchlab import plots, schema
from prefetchlab.datasets import LabeledDataset, build_datasets, mean_cycles_per_access
from prefetchlab.features import FeatureConfig, TokenDictionary
from prefetchlab.labeling import LabelConfig, label_bitmaps
from prefetchlab.model import ModelConfig, ModelDims, ModelParams, TrainConfig, TrainingError, predict, train
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
from prefetchlab.schema import config, field
from prefetchlab.throttle import ThresholdReport, micro_metrics, threshold_grid, tune_threshold
from prefetchlab.trace import (
    AddressConfig, block_addresses, check_pattern, check_split_ratios, generate_trace, read_trace,
    split_trace, write_trace
)


class ConfigError(Exception):
    """The experiment configuration is malformed or inconsistent."""


class StageDependencyError(Exception):
    """An upstream artifact needed by the requested stage is missing."""


class StaleArtifactsError(Exception):
    """An upstream artifact was produced under a different configuration."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@config
class TraceSource:
    source: str = field("generate", one_of=("generate", "file"))
    pattern: dict = field(factory=lambda: {"name": "stride", "stride": 3})
    length: int = field(20000, ge=1)
    path: str | None = None
    format: str = field("csv", one_of=("csv", "pc_vaddr"))

    def __post_init__(self):
        check_pattern(self.pattern, self.length)
        if self.source == "file" and not self.path:
            raise ValueError("path must be set when source is 'file'")


@config
class ThresholdConfig:
    grid_step: float = field(0.01, gt=0, lt=1)

    def __post_init__(self):  # tune_threshold scores every threshold of this grid
        threshold_grid(self.grid_step)


@config
class SweepConfig:  # stage_sweep loops over each list, one report key per grid point
    latencies: tuple[int, ...] = field((0, 50, 100, 200), ge=0, distinct=True)
    throughputs: tuple[str, ...] = field(("L", "H"), one_of=("L", "H"), distinct=True)
    distance: tuple[bool, ...] = field((True, False), distinct=True)


@config
class SimulateConfig:  # one simulation and one report key per prefetcher
    prefetchers: tuple[str, ...] = field(("model",), one_of=("best_offset", "model", "next_line", "stride"),
                                         distinct=True)
    top_k: int | None = field(None, ge=1)              # top-k mode for the model prefetcher; None = threshold
    timeline_interval: int | None = field(None, ge=1)  # per-interval miss-rate rows, None disables


@config
class ExperimentConfig:
    seed: int = field(0, ge=0)
    address: AddressConfig = AddressConfig()
    features: FeatureConfig = FeatureConfig()
    label: LabelConfig = LabelConfig()
    model: ModelDims = ModelDims()
    train: dict = field(factory=dict)         # TrainConfig overrides
    threshold: ThresholdConfig = ThresholdConfig()
    cache: CacheConfig = CacheConfig()
    latency: LatencyModel = LatencyModel()
    trace: TraceSource = TraceSource()
    split: tuple[float, ...] = (0.4, 0.1, 0.5)
    trigger_stream: str = field("access", one_of=("access", "miss"))
    eval_modes: tuple[FeatureConfig, ...] = ()  # extra FeatureConfigs for the input ablation
    simulate: SimulateConfig = SimulateConfig()
    sweep: SweepConfig = SweepConfig()

    def __post_init__(self):
        check_split_ratios(self.split)
        for where, fc in [("features", self.features),
                          *((f"eval_modes[{i}]", fc) for i, fc in enumerate(self.eval_modes))]:
            try:
                fc.input_dim(self.address)  # the derived input dims
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        self.train_config()

    def model_config(self, feature_cfg: FeatureConfig | None = None) -> ModelConfig:
        fc = feature_cfg or self.features
        return ModelConfig(**asdict(self.model), output_dim=self.label.bitmap_size,
                           input_dim=fc.input_dim(self.address))

    def train_config(self) -> TrainConfig:
        return schema.build(TrainConfig, self.train, "train", seed=self.seed)

    def all_feature_modes(self) -> list[FeatureConfig]:
        """Primary mode first, then any distinct ablation modes."""
        modes = [self.features]
        for fc in self.eval_modes:
            if fc not in modes:
                modes.append(fc)
        return modes

    def validate(self) -> "ExperimentConfig":
        """Every check runs at construction, so a config that exists is valid."""
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            return schema.build(cls, raw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        raw = _read_json(path)
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = seed_override
    return ExperimentConfig.from_dict(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def mode_tag(fc: FeatureConfig) -> str:
    return f"as{fc.segment_bits}" if fc.mode == "as" else fc.mode


# ---------------------------------------------------------------------------
# The run directory
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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path, obj):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_json_text(obj))


def _manifest_digest(manifest: dict) -> str:
    """SHA-256 of a manifest as ``_write_json`` writes it, without its ``digest`` field."""
    return hashlib.sha256(_json_text({k: v for k, v in manifest.items() if k != "digest"}).encode()).hexdigest()


class _Run:
    """One stage's route into a run directory: checked reads, atomic writes, one manifest.

    ``read`` is the only way a stage takes an upstream artifact. It checks that the
    producing stage's manifest matches its own digest and names that stage and the current
    config, re-hashes the file against the hash that manifest recorded, and records the hash
    as an input. ``out`` hands out a partial path beside each output; ``finish`` hashes the
    outputs, moves them into place and writes the manifest last, so a manifest
    always describes a finished stage.
    """

    def __init__(self, cfg: ExperimentConfig, run_dir, stage: str):
        self.cfg, self.dir, self.stage = cfg, run_dir, stage
        self.config_hash = config_hash(cfg)
        self.inputs: dict[str, str] = {}
        self.partials: dict[str, str] = {}  # output name -> partial path

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def has(self, stage: str) -> bool:
        """Whether ``stage`` has a manifest here, i.e. finished in this run directory."""
        return os.path.exists(self.path(f"manifest_{stage}.json"))

    def manifest(self, stage: str) -> dict:
        """``stage``'s manifest, once it matches its digest and names ``stage`` and this config."""
        if not self.has(stage):
            raise StageDependencyError(f"stage '{stage}' has not produced artifacts in {self.dir}")
        manifest_name = f"manifest_{stage}.json"
        try:
            manifest = _read_json(self.path(manifest_name))
        except ValueError as exc:  # malformed JSON, or bytes that are not text
            raise StaleArtifactsError(f"{manifest_name} is not valid JSON: {exc}") from None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("outputs"), dict):
            raise StaleArtifactsError(f"{manifest_name} is not a stage manifest: "
                                      "expected an object with an 'outputs' object")
        if manifest.get("digest") != _manifest_digest(manifest):
            raise StaleArtifactsError(f"{manifest_name} does not match its digest")
        if manifest.get("stage") != stage:
            raise StaleArtifactsError(f"{manifest_name} names stage {manifest.get('stage')!r}, not '{stage}'")
        if manifest.get("config_hash") != self.config_hash:
            raise StaleArtifactsError(f"artifacts of stage '{stage}' were built under config "
                                      f"{manifest.get('config_hash')!r}, current config is {self.config_hash!r}")
        return manifest

    def read(self, stage: str, name: str) -> str:
        """Path of artifact ``name`` once it matches the hash ``stage`` recorded for it."""
        recorded = self.manifest(stage)["outputs"].get(name)
        path = self.path(name)
        if recorded is None or not os.path.exists(path):
            raise StageDependencyError(f"{name} of stage '{stage}' is missing in {self.dir}")
        digest = _sha256_file(path)
        if digest != recorded:
            raise StaleArtifactsError(f"{name} no longer matches the hash stage '{stage}' recorded")
        self.inputs[name] = digest
        return path

    def trace(self):
        """The trace: gen's, or the file, which must still be the one a finished preprocess read."""
        source = self.cfg.trace
        if source.source != "file":
            return read_trace(self.read("gen", "trace.csv.gz"))
        digest = _sha256_file(source.path)
        if self.has("preprocess") and self.manifest("preprocess")["inputs"].get(source.path) != digest:
            raise StaleArtifactsError(f"{source.path} no longer matches the hash stage 'preprocess' recorded")
        self.inputs[source.path] = digest
        return read_trace(source.path, source.format)

    def dataset(self, fc: FeatureConfig, part: str) -> LabeledDataset:
        return LabeledDataset.load(self.read("preprocess", _dataset_name(fc, part)))

    def out(self, name: str) -> str:
        """Partial path for output ``name``; it keeps the name's suffix (``.gz`` selects gzip)."""
        self.partials[name] = self.path(f".partial.{name}")
        return self.partials[name]

    def finish(self) -> dict:
        """Land every output, then the manifest that lists them."""
        manifest = {
            "stage": self.stage,
            "config_hash": self.config_hash,
            "package_version": PACKAGE_VERSION,
            "inputs": self.inputs,
            "outputs": {name: _sha256_file(p) for name, p in self.partials.items()},
        }
        manifest["digest"] = _manifest_digest(manifest)
        _write_json(self.out(f"manifest_{self.stage}.json"), manifest)
        for name, partial in self.partials.items():  # insertion order: the manifest lands last
            os.replace(partial, self.path(name))
        return manifest


def _dataset_name(fc: FeatureConfig, part: str) -> str:
    return f"dataset_{mode_tag(fc)}_{part}.bin"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_gen(run: _Run) -> None:
    cfg = run.cfg
    if cfg.trace.source != "generate":
        raise ConfigError("gen stage needs trace.source == 'generate'")
    write_trace(run.out("trace.csv.gz"),
                generate_trace(cfg.trace.pattern, cfg.trace.length, cfg.seed, cfg.address))


def stage_preprocess(run: _Run) -> None:
    cfg = run.cfg
    trace = run.trace()
    split = split_trace(trace, cfg.split)
    dict_report = {}
    for fc in cfg.all_feature_modes():
        bundle = build_datasets(
            trace, split, fc, cfg.label, cfg.address, cfg.model.history_len
        )
        for part in ("train", "validation", "test"):
            getattr(bundle, part).save(run.out(_dataset_name(fc, part)))
        dict_report[mode_tag(fc)] = {
            "entries": bundle.dictionary_sizes(),
            "pairs": {name: d.to_pairs() for name, d in bundle.dictionaries.items()},
        }
    _write_json(run.out("split.json"), split.as_dict())
    _write_json(run.out("dictionaries.json"), dict_report)
    _write_json(
        run.out("preprocess_meta.json"),
        {
            "records": len(trace),
            "mean_cycles_per_access_train": mean_cycles_per_access(trace, split.train),
        },
    )


def _fit(cfg: ExperimentConfig, fc: FeatureConfig, train_ds: LabeledDataset, val_ds: LabeledDataset):
    """Train on the labeled training samples. The params come back through the
    checkpoint codec, so every stage runs the float32 weights ``model.ckpt`` stores."""
    model_cfg = cfg.model_config(fc)
    train_ds = train_ds.training_view()
    params, log = train(
        model_cfg,
        train_ds.inputs, train_ds.contexts, train_ds.labels,
        val_ds.inputs, val_ds.contexts, val_ds.labels,
        cfg.train_config(),
    )
    return ModelParams.decode(params.encode()), log


def stage_train(run: _Run) -> None:
    cfg = run.cfg
    params, log = _fit(cfg, cfg.features, run.dataset(cfg.features, "train"),
                       run.dataset(cfg.features, "validation"))
    params.save(run.out("model.ckpt"))
    _write_csv(run.out("training_log.csv"), ["epoch", "train_loss", "val_loss", "lr"],
               ((e.epoch, e.train_loss, e.val_loss, e.learning_rate) for e in log))


def _tune(cfg: ExperimentConfig, params: ModelParams, val: LabeledDataset) -> ThresholdReport:
    """F1-optimal threshold of ``params`` on the validation samples."""
    conf = predict(params, val.inputs, val.contexts)
    return tune_threshold(conf, val.labels, cfg.threshold.grid_step)


def stage_tune(run: _Run) -> None:
    cfg = run.cfg
    params = ModelParams.load(run.read("train", "model.ckpt"))
    report = _tune(cfg, params, run.dataset(cfg.features, "validation"))
    _write_json(run.out("threshold.json"), report.to_dict())
    _write_csv(run.out("threshold_grid.csv"), ["threshold", "precision", "recall", "f1"],
               report.grid)


def _model(run: _Run, fc: FeatureConfig, label_cfg: LabelConfig, train_ds, val: LabeledDataset):
    """The model for (features, label), its tuned threshold on ``val`` and whether it is train's:
    ``model.ckpt`` holds the weights ``_fit`` returns for the main features and label, so it is
    read once train has run. Otherwise the model is fitted on ``train_ds()``, called only then."""
    cfg = run.cfg
    reused = fc == cfg.features and label_cfg == cfg.label and run.has("train")
    params = (ModelParams.load(run.read("train", "model.ckpt")) if reused
              else _fit(cfg, fc, train_ds(), val)[0])
    return params, _tune(cfg, params, val), reused


def stage_eval(run: _Run) -> None:
    """Input-mode ablation: train, tune, and score one model per feature mode."""
    cfg = run.cfg
    dict_report = _read_json(run.read("preprocess", "dictionaries.json"))
    rows = []
    for fc in cfg.all_feature_modes():
        tag = mode_tag(fc)
        params, tuned, reused_main = _model(run, fc, cfg.label, lambda: run.dataset(fc, "train"),
                                            run.dataset(fc, "validation"))
        if not reused_main:
            params.save(run.out(f"eval_model_{tag}.ckpt"))
        test = run.dataset(fc, "test")
        test_conf = predict(params, test.inputs, test.contexts)
        precision, recall, f1 = micro_metrics(test_conf >= tuned.optimal_threshold, test.labels)
        entries = dict_report[tag]["entries"]
        rows.append({
            "mode": tag,
            "input_dim": fc.input_dim(cfg.address),
            "dictionary_entries": sum(entries.values()),
            "threshold": tuned.optimal_threshold,
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "reused_main_model": reused_main,
        })
        del params, tuned, test, test_conf  # the next mode's fit must not run beside this mode's model
    _write_json(run.out("eval_metrics.json"), {"modes": rows})
    _write_csv(run.out("eval_metrics.csv"), list(rows[0]), (r.values() for r in rows))


def _build_prefetcher(name, run: _Run):
    cfg, sim = run.cfg, run.cfg.simulate
    if name == "next_line":  # degree 2; stride and best-offset take their tuning from class constants
        return NextLinePrefetcher(2, cfg.address)
    if name == "stride":
        return StridePrefetcher(addr_cfg=cfg.address)
    if name == "best_offset":
        return BestOffsetPrefetcher(addr_cfg=cfg.address)
    dictionary = None
    if cfg.features.needs_dictionary:
        pairs = _read_json(run.read("preprocess", "dictionaries.json"))[mode_tag(cfg.features)]["pairs"]
        dictionary = TokenDictionary.from_pairs(next(iter(pairs.values())))
    params = ModelParams.load(run.read("train", "model.ckpt"))
    threshold = None
    if sim.top_k is None:
        threshold = _read_json(run.read("tune", "threshold.json"))["optimal_threshold"]
    return ModelPrefetcher(
        params, cfg.features, cfg.label, cfg.address,
        threshold=threshold, top_k=sim.top_k, dictionary=dictionary,
    )


def _hist_source(cfg: ExperimentConfig) -> str:
    """The prefetcher whose degree histogram a run reports: the model, else the first configured."""
    return "model" if "model" in cfg.simulate.prefetchers else cfg.simulate.prefetchers[0]


def stage_simulate(run: _Run) -> None:
    cfg = run.cfg
    trace = run.trace()
    # built up front, so a missing or stale upstream artifact stops the stage before any simulation
    prefetchers = [(name, _build_prefetcher(name, run)) for name in cfg.simulate.prefetchers]
    reports = {}
    interval = cfg.simulate.timeline_interval
    for name, pf in prefetchers:
        timeline = None if interval is None else MissTimeline(len(trace), interval)
        report = simulate(
            trace, pf, cfg.cache, cfg.latency, cfg.address, cfg.trigger_stream, event_log=timeline
        )
        reports[name] = report.to_dict()
        if timeline is not None:
            _write_csv(run.out(f"miss_timeline_{name}.csv"), ["access", "misses", "miss_rate"],
                       timeline.rows())
    _write_json(run.out("sim_reports.json"), reports)
    _write_csv(run.out("degree_hist.csv"), ["degree", "count"],
               sorted(reports[_hist_source(cfg)]["degree_hist"].items(), key=lambda kv: int(kv[0])))


def _relabel(ds: LabeledDataset, blocks, label_cfg: LabelConfig) -> LabeledDataset:
    """``ds`` under ``label_cfg``: a label reads only its trigger and the block column, so these
    are the labels ``build_datasets`` gives under ``label_cfg``, given a split it built."""
    return replace(ds, labels=label_bitmaps(blocks, ds.triggers, label_cfg))


def _unlabeled_copy(ds: LabeledDataset) -> LabeledDataset:
    """``ds``'s rows with no labels (a (n, 0) bitmap), in arrays that are views of nothing."""
    return replace(ds, inputs=ds.inputs.copy(), contexts=ds.contexts.copy(),
                   labels=ds.labels[:, :0].copy(), triggers=ds.triggers.copy())


def stage_sweep(run: _Run) -> None:
    """Latency sweep: encode the datasets once, since a distance skip changes only the labels, and
    check every unique skip's training labels for in-bound deltas. Then, one skip at a time,
    relabel the train and validation splits, take its model through ``_model`` and simulate each
    distinct (latency, throughput) its grid points name; grid points that share all three share
    one simulation. Only built splits are relabeled: a loaded split numbers its rows from 0, not
    by trigger, so relabeling it would give wrong labels without any error."""
    cfg = run.cfg
    trace = run.trace()
    split = split_trace(trace, cfg.split)
    cpa = mean_cycles_per_access(trace, split.train)

    combos = [(dp, t, math.ceil(t / cpa) if dp else 0)  # (distance, latency, skip) in grid order
              for dp in cfg.sweep.distance for t in cfg.sweep.latencies]
    bundle = build_datasets(trace, split, cfg.features, cfg.label, cfg.address, cfg.model.history_len)
    blocks = block_addresses(trace, cfg.address)
    skips = list(dict.fromkeys(skip for _, _, skip in combos))
    for skip in skips:  # all checked before the first fit; the labels are not kept
        if not _relabel(bundle.train, blocks, replace(cfg.label, skip=skip)).nonempty_mask.any():
            raise TrainingError(
                f"distance labeling with skip={skip} accesses leaves no in-bound "
                f"deltas on this trace (look_forward={cfg.label.look_forward}, "
                f"bound +-{cfg.label.delta_bound}); lower the sweep latencies or "
                f"widen the bound"
            )
    # the sweep reads neither the test split nor label.skip's labels: keep the train and
    # validation rows in arrays of their own, so the whole-trace arrays of the bundle are freed
    train, val = (_unlabeled_copy(ds) for ds in (bundle.train, bundle.validation))
    dictionary = next(iter(bundle.dictionaries.values()), None)
    del bundle
    thresholds: dict[int, float] = {}
    results = {}  # (skip, latency, throughput) -> SimReport: one per distinct prefetcher and latency model
    for skip in skips:  # one skip at a time: its labels, model and prefetcher go after its last point
        label_cfg = replace(cfg.label, skip=skip)
        params, tuned, _ = _model(run, cfg.features, label_cfg, lambda: _relabel(train, blocks, label_cfg),
                                  _relabel(val, blocks, label_cfg))
        pf = ModelPrefetcher(params, cfg.features, label_cfg, cfg.address, threshold=tuned.optimal_threshold,
                             dictionary=dictionary)
        thresholds[skip] = pf.threshold
        for _, t, point_skip in combos:
            for thr in cfg.sweep.throughputs:
                if point_skip == skip and (skip, t, thr) not in results:
                    results[skip, t, thr] = simulate(
                        trace, pf, cfg.cache, LatencyModel(t, thr), cfg.address, cfg.trigger_stream
                    )
        del pf, params, tuned  # the next skip's fit must not run beside this skip's model

    rows = []
    reports = {}
    for dp, t, skip in combos:
        for thr in cfg.sweep.throughputs:
            report = results[skip, t, thr]
            key = f"T{t}_{thr}_{'dp' if dp else 'nodp'}"
            reports[key] = report.to_dict()
            rows.append({
                "latency_cycles": t,
                "throughput": thr,
                "distance": int(dp),
                "skip_accesses": skip,
                "threshold": thresholds[skip],
                "coverage": report.coverage,
                "accuracy": report.accuracy,
                "issued": report.prefetches_issued,
                "useful": report.useful_prefetches,
                "late": report.late_prefetches,
                "mean_degree": report.mean_degree,
            })
    _write_json(run.out("sweep_reports.json"), reports)
    _write_csv(run.out("sweep_comparison.csv"), list(rows[0]), (r.values() for r in rows))


def stage_report(run: _Run) -> None:
    """Aggregate stage artifacts into one summary plus SVG plots.

    Reads only artifacts written by earlier stages, never the raw trace."""
    threshold_report = _read_json(run.read("tune", "threshold.json"))
    sim_reports = _read_json(run.read("simulate", "sim_reports.json"))
    summary = {
        "config_hash": run.config_hash,
        "threshold": {k: threshold_report[k] for k in ("optimal_threshold", "mean_degree")},
    }
    grid = threshold_report["grid"]
    plots.svg_line_chart(
        {"micro F1": [(row[0], row[3]) for row in grid],
         "precision": [(row[0], row[1]) for row in grid],
         "recall": [(row[0], row[2]) for row in grid]},
        run.out("threshold_f1.svg"),
        "Threshold sweep on the validation split", "threshold", "metric",
    )

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
        run.out("coverage_accuracy.svg"),
        "Prefetch accuracy and coverage", "value",
    )
    hist_source = _hist_source(run.cfg)
    hist = {int(k): v for k, v in sim_reports[hist_source]["degree_hist"].items()}
    degrees = sorted(hist)
    plots.svg_bar_chart(
        [str(d) for d in degrees],
        {"triggers": [hist[d] for d in degrees]},
        run.out("degree_hist.svg"),
        f"Prefetch degree histogram ({hist_source})", "trigger count",
    )

    if run.has("eval"):
        summary["input_ablation"] = _read_json(run.read("eval", "eval_metrics.json"))["modes"]
    if run.has("train"):
        with open(run.read("train", "training_log.csv")) as fh:
            final = list(csv.DictReader(fh))[-1]
        summary["training"] = {k: float(v) for k, v in final.items()}
    if run.has("sweep"):
        with open(run.read("sweep", "sweep_comparison.csv")) as fh:
            sweep_rows = list(csv.DictReader(fh))
        summary["sweep"] = sweep_rows
        series: dict[str, list] = {}
        for row in sweep_rows:
            key = f"{row['throughput']}/{'DP' if row['distance'] == '1' else 'noDP'}"
            series.setdefault(key, []).append((float(row["latency_cycles"]), float(row["coverage"])))
        for pts in series.values():
            pts.sort()
        plots.svg_line_chart(
            series, run.out("sweep.svg"),
            "Coverage vs induced latency", "induced latency (cycles)", "coverage",
        )

    _write_json(run.out("summary.json"), summary)


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
STAGES = tuple(_STAGE_FUNCS)


def run_stage(stage: str, cfg: ExperimentConfig, run_dir) -> dict:
    """Run one stage through one ``_Run`` and return its manifest."""
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r} (stages: {', '.join(STAGES)})")
    os.makedirs(run_dir, exist_ok=True)
    run = _Run(cfg, run_dir, stage)
    if run.has(stage):  # from here on, no manifest claims this stage's outputs
        os.remove(run.path(f"manifest_{stage}.json"))
    try:
        _STAGE_FUNCS[stage](run)
        return run.finish()
    finally:  # after a failure, earlier outputs stay as they were
        for partial in run.partials.values():
            if os.path.exists(partial):
                os.remove(partial)
