import ast
import copy
import ctypes
import dataclasses
import glob
import hashlib
import importlib
import json
import os
import pathlib
import pkgutil
import re
import shutil
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import prefetchlab
import tests.test_acceptance as acceptance
from tests.test_model import byte_classes
from prefetchlab import cli, pipeline, plots
from prefetchlab.datasets import LabeledDataset, build_datasets
from prefetchlab.features import FeatureConfig, SegmentationConfig
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import LatencyCosts, ModelConfig, ModelDims, ModelParams, TrainConfig, TrainingError
from prefetchlab.pipeline import (
    ConfigError,
    ExperimentConfig,
    SimulateConfig,
    StageDependencyError,
    StaleArtifactsError,
    SweepConfig,
    ThresholdConfig,
    TraceSource,
    config_hash,
    load_config,
    run_stage,
)
from prefetchlab.simulator import CacheConfig, LatencyModel
from prefetchlab.trace import (
    AddressConfig, SplitError, block_addresses, generate_trace, split_trace, write_trace
)

TINY_RAW = {
    "seed": 11,
    "trace": {"source": "generate",
              "pattern": {"name": "stride", "stride": 3, "cycle_step": 25},
              "length": 1500},
    "label": {"look_forward": 24, "delta_bound": 32},
    "model": {"hidden_dim": 16, "num_heads": 2, "num_layers": 1, "history_len": 4},
    "train": {"max_epochs": 2, "batch_size": 128},
    "threshold": {"grid_step": 0.05},
    "cache": {"sets": 16, "ways": 4},
    "sweep": {"latencies": [0, 100], "throughputs": ["L"], "distance": [True, False]},
    "simulate": {"prefetchers": ["model", "next_line"], "timeline_interval": 256},
    "eval_modes": [{"mode": "delta"}],
}


@pytest.fixture(scope="module")
def tiny_cfg():
    return ExperimentConfig.from_dict(TINY_RAW)


@pytest.fixture(scope="module")
def full_run(tiny_cfg, tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("run"))
    for stage in pipeline.STAGES:
        run_stage(stage, tiny_cfg, run_dir)
    return run_dir


class TestConfig:
    def test_dict_roundtrip(self, tiny_cfg):
        again = ExperimentConfig.from_dict(tiny_cfg.to_dict())
        assert again == tiny_cfg
        assert config_hash(again) == config_hash(tiny_cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_dict({"sead": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"label": {"lookahead": 4}})

    def test_cross_field_validation(self):
        bad = dict(TINY_RAW, model={"hidden_dim": 10, "num_heads": 4})
        with pytest.raises(ConfigError, match="divisible"):
            ExperimentConfig.from_dict(bad)

    def test_derived_dims(self, tiny_cfg):
        mc = tiny_cfg.model_config()
        assert mc.output_dim == 64  # 2 * delta_bound
        assert mc.input_dim == 10   # ceil(58 / 6)
        delta_mc = tiny_cfg.model_config(tiny_cfg.eval_modes[0])
        assert delta_mc.input_dim == 1

    def test_seed_changes_hash(self, tiny_cfg):
        other = ExperimentConfig.from_dict(dict(TINY_RAW, seed=99))
        assert config_hash(other) != config_hash(tiny_cfg)

    def test_split_must_be_a_list(self):
        # and split_trace's ratio rule, checked before any stage runs
        for split in (3, ["a", "b", "c"], [0.5, 0.5, 0.5]):
            with pytest.raises(ConfigError, match="split"):
                ExperimentConfig.from_dict({"split": split})

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"seed": seed})

    @pytest.mark.parametrize("length", [-5, 0, 2.5, "100"])
    def test_trace_length_must_be_positive_integer(self, length):
        with pytest.raises(ConfigError, match="trace.length"):
            ExperimentConfig.from_dict({"trace": {"length": length}})

    def test_file_source_requires_path(self):
        with pytest.raises(ConfigError, match="path"):
            ExperimentConfig.from_dict({"trace": {"source": "file"}})

    @pytest.mark.parametrize("text, match", [
        ('{"seed": 1, "trace": {', "JSON"),
        ("[]", "mapping"),
        ('"x"', "mapping"),
        ('{"sweep": {"latencies": ["a"]}}', "latencies"),
        ('{"sweep": {"latencies": 5}}', "latencies"),
        ('{"simulate": {"prefetchers": "model"}}', "simulate.prefetchers"),
        ('{"eval_modes": 5}', "eval_modes"),
    ])
    def test_load_config_raises_config_error(self, tmp_path, text, match):
        path = tmp_path / "exp.json"
        path.write_text(text)
        for seed in (None, 3):
            with pytest.raises(ConfigError, match=match):
                load_config(str(path), seed_override=seed)


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _leaves(value, path="", keys=()):
    """(dotted path, key path, value) of every scalar leaf of a raw config.
    ``trace.pattern`` is one leaf: a mapping-typed field, not a config class."""
    if isinstance(value, dict) and path != "trace.pattern":
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else k, keys + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]", keys + (i,))
    else:
        yield path, keys, value


# an out-of-range value for every leaf of TINY_RAW; None where the field has no range
OUT_OF_RANGE = {
    "seed": -1, "trace.source": "tape", "trace.pattern": {"name": "nope"}, "trace.length": 0,
    "label.look_forward": 0, "label.delta_bound": 0,
    "model.hidden_dim": 0, "model.num_heads": 0, "model.num_layers": -1, "model.history_len": 0,
    "train.max_epochs": 0, "train.batch_size": 0, "threshold.grid_step": 1.5,
    "cache.sets": 0, "cache.ways": 0,
    "sweep.latencies[0]": -1, "sweep.latencies[1]": -100, "sweep.throughputs[0]": "M",
    "sweep.distance[0]": None, "sweep.distance[1]": None,
    "simulate.prefetchers[0]": "oracle", "simulate.prefetchers[1]": "markov",
    "simulate.timeline_interval": 0, "eval_modes[0].mode": "embedding",
}
OPTIONAL_LEAVES = {"simulate.timeline_interval"}


def _mutations():
    for path, keys, value in _leaves(TINY_RAW):
        wrong_type = 5 if isinstance(value, (str, dict)) else "x"
        cases = {"wrong-type": wrong_type, "bool": True, "out-of-range": OUT_OF_RANGE.get(path),
                 "null": None}
        if isinstance(value, bool):
            del cases["bool"]
        if OUT_OF_RANGE.get(path) is None:
            del cases["out-of-range"]
        if path in OPTIONAL_LEAVES:
            del cases["null"]
        for kind, bad in cases.items():
            yield pytest.param(path, keys, bad, id=f"{path}-{kind}")


# Configs that loaded at the parent and failed inside a stage or were silently accepted.
PROBES = {
    "trace.pattern=5": ({"trace": {"pattern": 5}}, "trace.pattern"),
    "trace.pattern=unknown": ({"trace": {"pattern": {"name": "nope"}}}, "trace.pattern"),
    "seed=-1": ({"seed": -1}, "seed"),
    "address.addr_bits=128": ({"address": {"addr_bits": 128}}, "address.addr_bits"),
    "address.block_offset_bits=12": ({"address": {"block_offset_bits": 12}},
                                     "address.block_offset_bits < page_size_bits < addr_bits must hold"),
    "label.look_forward=2.5": ({"label": {"look_forward": 2.5}}, "label.look_forward"),
    "features.hash_bits=40": ({"features": {"hash_bits": 40}}, "features.hash_bits"),
    "eval_modes[0].hash_bits=x": ({"eval_modes": [{"hash_bits": "x"}]}, "eval_modes[0].hash_bits"),
    "model.hidden_dim=16.0": ({"model": {"hidden_dim": 16.0}}, "model.hidden_dim"),
    "model.use_context=yes": ({"model": {"use_context": "yes"}}, "model.use_context"),
    "train.batch_size=64.5": ({"train": {"batch_size": 64.5}}, "train.batch_size"),
    "train.grad_clip=x": ({"train": {"grad_clip": "x"}}, "train.grad_clip"),
    "train.adam_eps=0": ({"train": {"adam_eps": 0}}, "train.adam_eps"),
    "threshold.grid_step=a": ({"threshold": {"grid_step": "a"}}, "threshold.grid_step"),
    "threshold.grid_step=0": ({"threshold": {"grid_step": 0}}, "threshold.grid_step"),
    "threshold.max_degree=a": ({"threshold": {"max_degree": "a"}}, "threshold.max_degree"),
    "simulate.top_k=a": ({"simulate": {"top_k": "a"}}, "simulate.top_k"),
    "simulate.timeline_interval=0": ({"simulate": {"timeline_interval": 0}}, "simulate.timeline_interval"),
    "simulate.next_line_degree=0": ({"simulate": {"next_line_degree": 0}}, "simulate.next_line_degree"),
    "simulate.stride_table_size=0": ({"simulate": {"stride_table_size": 0}}, "simulate.stride_table_size"),
    "cache.sets=1.5": ({"cache": {"sets": 1.5}}, "cache.sets"),
    "simulate.top_k=0": ({"simulate": {"top_k": 0}}, "simulate.top_k"),
    "cache.sets=true": ({"cache": {"sets": True}}, "cache.sets"),
    "model.history_len=true": ({"model": {"history_len": True}}, "model.history_len"),
    "latency.latency_cycles=1.5": ({"latency": {"latency_cycles": 1.5}}, "latency.latency_cycles"),
    "address.page_size_bits=12.0": ({"address": {"page_size_bits": 12.0}}, "address.page_size_bits"),
    "features.dictionary_capacity=0": ({"features": {"dictionary_capacity": 0}},
                                       "features.dictionary_capacity"),
    "trace.format=xml": ({"trace": {"format": "xml"}}, "trace.format"),
    "sweep.distance=[no]": ({"sweep": {"distance": ["no"]}}, "sweep.distance[0]"),
    "trace.pattern.stride=x": ({"trace": {"pattern": {"name": "stride", "stride": "x"}}}, "trace.pattern"),
    "trace.pattern.deltas=5": ({"trace": {"pattern": {"name": "page_skip", "deltas": 5}}}, "trace.pattern"),
    "trace.pattern.regions-without-start_page": (
        {"trace": {"pattern": {"name": "region_walks", "regions": [{"pages": 4, "walk": [1]}]}}},
        "trace.pattern"),
    "trace.pattern.cycle_step-past-int64": (
        {"trace": {"pattern": {"name": "stride", "cycle_step": 2**62}, "length": 3}}, "trace.pattern"),
    "trace.pattern.strid=3": ({"trace": {"pattern": {"name": "stride", "strid": 3}}}, "trace.pattern"),
    "trace.pattern.region_blocks=2**63+1": (
        {"trace": {"pattern": {"name": "random", "region_blocks": 2**63 + 1}}}, "trace.pattern"),
    "model.hidden_dim=30": ({"model": {"hidden_dim": 30}}, "model.hidden_dim"),
    "simulate.prefetchers=[]": ({"simulate": {"prefetchers": []}}, "simulate.prefetchers"),
    "sweep.latencies=[]": ({"sweep": {"latencies": []}}, "sweep.latencies"),
    "sweep.throughputs=[]": ({"sweep": {"throughputs": []}}, "sweep.throughputs"),
    "sweep.distance=[]": ({"sweep": {"distance": []}}, "sweep.distance"),
    "sweep.latencies=[0,0]": ({"sweep": {"latencies": [0, 0]}}, "sweep.latencies"),
    "sweep.throughputs=[L,L]": ({"sweep": {"throughputs": ["L", "L"]}}, "sweep.throughputs"),
    "sweep.distance=[true,true]": ({"sweep": {"distance": [True, True]}}, "sweep.distance"),
    "simulate.prefetchers=[next_line,stride,next_line]": (
        {"simulate": {"prefetchers": ["next_line", "stride", "next_line"]}}, "simulate.prefetchers"),
    "features.segment_bits=60": ({"features": {"segment_bits": 60}}, "features"),
    "eval_modes[0].segment_bits=60": ({"eval_modes": [{"segment_bits": 60}]}, "eval_modes[0]"),
    "threshold.grid_step=0.7": ({"threshold": {"grid_step": 0.7}}, "threshold.grid_step"),
    "cache.line_bytes=128": ({"cache": {"line_bytes": 128}}, "cache.line_bytes"),
    "trace.length=5": ({"trace": {"length": 5}}, "split"),
    "split=[0.5,0.5-1e-12,1e-12]": (
        {"trace": {"length": 300}, "split": [0.5, 0.5 - 1e-12, 1e-12]}, "split"),
    "train.beta1=0.8": ({"train": {"beta1": 0.8}}, "train.beta1"),
    "train.beta2=0.99": ({"train": {"beta2": 0.99}}, "train.beta2"),
    "train.lr_decay=0.1": ({"train": {"lr_decay": 0.1}}, "train.lr_decay"),
    "simulate.stride_confirm=1": ({"simulate": {"stride_confirm": 1}}, "simulate.stride_confirm"),
    "simulate.stride_degree=2": ({"simulate": {"stride_degree": 2}}, "simulate.stride_degree"),
    "simulate.best_offset_round_length=2": ({"simulate": {"best_offset_round_length": 2}},
                                            "simulate.best_offset_round_length"),
    "simulate.best_offset_score_threshold=1": ({"simulate": {"best_offset_score_threshold": 1}},
                                               "simulate.best_offset_score_threshold"),
}


def _redigested(manifest):
    """``manifest`` with the digest of its edited fields, so only its content can be refused."""
    return dict(manifest, digest=pipeline._manifest_digest(manifest))


def _demo08_raw():
    source = pathlib.Path(REPO, "demos", "08_pipeline_stages.py").read_text()
    return ast.literal_eval(re.search(r"from_dict\((\{.*?\})\)\n", source, re.S).group(1))


def _readme_raw():
    readme = pathlib.Path(REPO, "README.md").read_text()
    return json.loads(re.search(r"A minimal config.*?```json\n(.*?)```", readme, re.S).group(1))


class TestConfigSchema:
    def test_out_of_range_table_covers_every_leaf(self):
        assert set(OUT_OF_RANGE) == {path for path, _, _ in _leaves(TINY_RAW)}

    @pytest.mark.parametrize("path, keys, bad", list(_mutations()))
    def test_every_leaf_mutation_names_the_leaf(self, path, keys, bad):
        raw = copy.deepcopy(TINY_RAW)
        node = raw
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = bad
        with pytest.raises(ConfigError, match="^" + re.escape(path)):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("raw, path", list(PROBES.values()), ids=list(PROBES))
    def test_probe_raises_at_load(self, tmp_path, raw, path):
        with pytest.raises(ConfigError, match="^" + re.escape(path)):
            ExperimentConfig.from_dict(raw)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="^" + re.escape(path)):
            load_config(str(cfg_path))

    @pytest.mark.parametrize("raw, expected", [
        (TINY_RAW, "d6ffcead15e57d3ddca527eed2e5129090439468f19a7d07a7039f6df3959d73"),
        (acceptance.TestDeterminism.RAW, "bc4c13577920c21a03a8853b1d81337df648cafe7f03b7f2b95c1ead7c58f789"),
        (_demo08_raw(), "52f88c90e560f684f0b92e9e4eaf4d6264d06b860e28390249f14305d30a2248"),
        (_readme_raw(), "f9dc5f1b7efe5cb7f413750af3cc2c88fbc16c468568d959f2296ccab035c8ae"),
    ], ids=["TINY_RAW", "determinism", "demo08", "readme"])
    def test_config_hash_pinned(self, raw, expected):
        assert config_hash(ExperimentConfig.from_dict(raw)) == expected

    def test_constructors_take_json_shapes(self, tiny_cfg):
        """Each section of TINY_RAW built from Python as JSON gives it, lists and mappings."""
        raw = TINY_RAW
        cfg = ExperimentConfig(
            seed=raw["seed"], trace=TraceSource(**raw["trace"]), label=LabelConfig(**raw["label"]),
            model=ModelDims(**raw["model"]), train=raw["train"],
            threshold=ThresholdConfig(**raw["threshold"]), cache=CacheConfig(**raw["cache"]),
            sweep=SweepConfig(**raw["sweep"]), simulate=SimulateConfig(**raw["simulate"]),
            eval_modes=raw["eval_modes"])
        assert cfg == tiny_cfg
        assert config_hash(cfg) == config_hash(tiny_cfg)

    @pytest.mark.parametrize("make", [
        lambda: AddressConfig(page_size_bits=12.0),
        lambda: SegmentationConfig(True),
        lambda: FeatureConfig(hash_bits=40),
        lambda: LabelConfig(look_forward=2.5),
        lambda: ModelConfig(use_context="yes"),
        lambda: TrainConfig(learning_rate=0),
        lambda: CacheConfig(sets=True),
        lambda: LatencyModel(1.5),
        lambda: LatencyCosts("1", 0, 0, 0),
    ], ids=["AddressConfig", "SegmentationConfig", "FeatureConfig", "LabelConfig", "ModelConfig",
            "TrainConfig", "CacheConfig", "LatencyModel", "LatencyCosts"])
    def test_library_constructor_raises_value_error(self, make):
        with pytest.raises(ValueError):
            make()

    def test_numbers_stored_as_given(self):
        assert type(LatencyModel(np.int64(5)).latency_cycles) is int
        assert type(TrainConfig(learning_rate=1).learning_rate) is int  # float fields keep ints

    def test_every_config_field_is_read(self):
        """Each field of each ``@config`` class is read as ``.<field>`` somewhere in ``src/``
        (method calls do not count), so no field is accepted and then ignored. The check goes
        by name: a field shares its reads with any other field or attribute of that name."""
        source = "\n".join(p.read_text() for p in pathlib.Path(REPO, "src", "prefetchlab").glob("*.py"))
        classes = {obj for m in pkgutil.iter_modules(prefetchlab.__path__)
                   for obj in vars(importlib.import_module(f"prefetchlab.{m.name}")).values()
                   if isinstance(obj, type) and "_config_rules" in vars(obj)}
        assert CacheConfig in classes and ExperimentConfig in classes
        unread = [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)
                  if not re.search(rf"\.{f.name}\b(?!\s*\()", source)]
        assert not unread, f"config fields no code reads: {sorted(unread)}"


def manifest_byte_classes(raw):
    """(name, start, end) of each byte class of a stage manifest: each key and each string
    value, named by its path of keys, then the first brace, colon, comma and line break."""
    text, classes, open_keys, key = raw.decode("ascii"), [], [], None
    for m in re.finditer(r'"[^"]*"|[{}]', text):
        token = m.group()
        if token == "{":
            open_keys.append(key)
        elif token == "}":
            open_keys.pop()
        else:
            is_key = text[m.end()] == ":"
            key = token.strip('"') if is_key else key
            classes.append((f"{'key' if is_key else 'value'} {'/'.join([*open_keys[1:], key])}",
                            m.start(), m.end()))
    return classes + [(f"{what} {sym!r}", text.index(sym), text.index(sym) + 1)
                      for what, sym in (("brace", "{"), ("colon", ":"), ("comma", ","), ("break", "\n"))]


class TestStages:
    def test_all_manifests_written(self, full_run):
        for stage in pipeline.STAGES:
            path = os.path.join(full_run, f"manifest_{stage}.json")
            assert os.path.exists(path), stage
            manifest = json.loads(pathlib.Path(path).read_text())
            assert manifest["stage"] == stage
            for name, digest in manifest["outputs"].items():
                assert os.path.exists(os.path.join(full_run, name))
                assert len(digest) == 64
        assert not [name for name in os.listdir(full_run) if name.startswith(".partial.")]

    def test_manifest_inputs_are_the_files_read(self, full_run):
        split = ["dataset_as6_train.bin", "dataset_as6_validation.bin"]
        want = {
            "gen": set(),
            "preprocess": {"trace.csv.gz"},
            "train": set(split),
            "tune": {"model.ckpt", "dataset_as6_validation.bin"},
            "eval": {"dictionaries.json", "model.ckpt", "dataset_as6_validation.bin",
                     "dataset_as6_test.bin", "dataset_delta_train.bin",
                     "dataset_delta_validation.bin", "dataset_delta_test.bin"},
            "simulate": {"trace.csv.gz", "model.ckpt", "threshold.json"},
            "sweep": {"trace.csv.gz", "model.ckpt"},
            "report": {"threshold.json", "sim_reports.json", "eval_metrics.json",
                       "training_log.csv", "sweep_comparison.csv"},
        }
        for stage, names in want.items():
            manifest = json.loads(pathlib.Path(full_run, f"manifest_{stage}.json").read_text())
            assert set(manifest["inputs"]) == names, stage
            for name in names:
                assert len(manifest["inputs"][name]) == 64

    def test_missing_dependency(self, tiny_cfg, tmp_path):
        with pytest.raises(StageDependencyError):
            run_stage("train", tiny_cfg, str(tmp_path))

    def test_stale_config_detected(self, full_run, tmp_path):
        # on a copy: a stage removes its own old manifest before it starts
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        other = ExperimentConfig.from_dict(dict(TINY_RAW, seed=12345))
        with pytest.raises(StaleArtifactsError):
            run_stage("train", other, clone)
        assert not os.path.exists(os.path.join(clone, "manifest_train.json"))

    @pytest.mark.parametrize("name, stage", [
        ("trace.csv.gz", "preprocess"),
        ("dataset_as6_validation.bin", "tune"),
        ("model.ckpt", "tune"),
        ("threshold.json", "simulate"),
        ("dictionaries.json", "eval"),
        ("model.ckpt", "sweep"),
    ])
    def test_corrupt_artifact_refused(self, tiny_cfg, full_run, tmp_path, name, stage):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        path = os.path.join(clone, name)
        data = bytearray(pathlib.Path(path).read_bytes())
        data[len(data) // 2] ^= 0x01
        pathlib.Path(path).write_bytes(bytes(data))
        with pytest.raises(StaleArtifactsError, match=name):
            run_stage(stage, tiny_cfg, clone)

    def test_missing_artifact_refused(self, tiny_cfg, full_run, tmp_path):
        # an output its manifest lists, gone from the run directory
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        os.remove(os.path.join(clone, "model.ckpt"))
        with pytest.raises(StageDependencyError, match=re.escape("model.ckpt of stage 'train' is missing")):
            run_stage("tune", tiny_cfg, clone)

    def test_edited_trace_file_refused_after_preprocess(self, tmp_path):
        # a file trace is read again by simulate and sweep: once preprocess has recorded
        # its hash, another file under the same path would run a model that was trained
        # and tuned on windows of the old one
        trace_path = tmp_path / "trace.csv"
        pattern = TINY_RAW["trace"]["pattern"]
        write_trace(trace_path, generate_trace(pattern, 1500, 11, AddressConfig()))
        cfg = ExperimentConfig.from_dict(dict(TINY_RAW, trace={"source": "file", "path": str(trace_path)}))
        run_dir = str(tmp_path / "run")
        for stage in ("preprocess", "train", "tune", "simulate"):
            run_stage(stage, cfg, run_dir)
        write_trace(trace_path, generate_trace(dict(pattern, stride=5), 1500, 11, AddressConfig()))
        for stage in ("simulate", "sweep"):
            with pytest.raises(StaleArtifactsError, match=re.escape(str(trace_path))):
                run_stage(stage, cfg, run_dir)
            assert not os.path.exists(os.path.join(run_dir, f"manifest_{stage}.json"))

    def test_checkpoint_fuzz_refused_by_tune(self, tiny_cfg, full_run, tmp_path):
        # one bit flipped in each byte class of model.ckpt, then the file cut at each
        # class boundary: tune refuses every one on the hash train recorded
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        path = os.path.join(clone, "model.ckpt")
        raw = pathlib.Path(path).read_bytes()
        cases = []
        for i, (name, lo, hi) in enumerate(byte_classes(raw)):
            bad = bytearray(raw)
            bad[(lo + hi) // 2] ^= 1 << (i % 8)
            cases += [(f"flip-{name}", bytes(bad)), (f"cut-{name}", raw[:lo])]
        for case, data in cases:
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(StaleArtifactsError, match="model.ckpt"):
                run_stage("tune", tiny_cfg, clone)
            assert not os.path.exists(os.path.join(clone, "manifest_tune.json")), case

    @pytest.mark.parametrize("manifest, stage", [("manifest_gen.json", "preprocess"),
                                                 ("manifest_train.json", "tune")])
    def test_manifest_fuzz_refused_by_next_stage(self, tiny_cfg, full_run, tmp_path, manifest, stage):
        # one bit flipped in each byte class of the manifest, then the file cut at each
        # class boundary: the next stage refuses every one, on the manifest's JSON or its
        # digest, with a typed error naming the manifest, never a JSON, key or numpy
        # traceback. Fields the stage does not read (inputs, package_version, an output
        # it does not use) are covered by the digest too.
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        path = os.path.join(clone, manifest)
        raw = pathlib.Path(path).read_bytes()
        cases = []
        for i, (name, lo, hi) in enumerate(manifest_byte_classes(raw)):
            bad = bytearray(raw)
            bad[(lo + hi) // 2] ^= 1 << (i % 8)
            cases += [(f"flip-{name}", bytes(bad)), (f"cut-{name}", raw[:lo])]
        for case, data in cases:
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(StaleArtifactsError, match=re.escape(manifest)):
                run_stage(stage, tiny_cfg, clone)
            assert not os.path.exists(os.path.join(clone, f"manifest_{stage}.json")), case

    def test_malformed_manifest_refused(self, tiny_cfg, full_run, tmp_path):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        with open(os.path.join(clone, "manifest_train.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(StaleArtifactsError, match="manifest_train.json"):
            run_stage("tune", tiny_cfg, clone)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [], "is not a stage manifest"),
        (lambda m: {k: v for k, v in m.items() if k != "outputs"}, "is not a stage manifest"),
        (lambda m: dict(m, outputs=list(m["outputs"])), "is not a stage manifest"),
        (lambda m: dict(m, stage="train"), "does not match its digest"),
        (lambda m: _redigested(dict(m, stage="train")), "names stage 'train', not 'gen'"),
    ], ids=["list", "no-outputs", "outputs-not-object", "other-stage", "other-stage-redigested"])
    def test_misshapen_manifest_refused(self, tiny_cfg, full_run, tmp_path, edit, message):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        path = os.path.join(clone, "manifest_gen.json")
        manifest = json.loads(pathlib.Path(path).read_text())
        with open(path, "w") as fh:
            json.dump(edit(manifest), fh)
        with pytest.raises(StaleArtifactsError, match=re.escape(f"manifest_gen.json {message}")):
            run_stage("simulate", tiny_cfg, clone)

    def test_failed_stage_leaves_earlier_outputs(self, tiny_cfg, full_run, tmp_path, monkeypatch):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        before = {n: pathlib.Path(clone, n).read_bytes()
                  for n in ("sim_reports.json", "miss_timeline_model.csv")}
        real, calls = pipeline.simulate, []

        def fail_second(*args, **kwargs):  # the first prefetcher's timeline is written by then
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("simulated crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate", fail_second)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_stage("simulate", tiny_cfg, clone)
        assert len(calls) == 2
        assert not os.path.exists(os.path.join(clone, "manifest_simulate.json"))
        assert not [n for n in os.listdir(clone) if n.startswith(".partial.")]
        for n, data in before.items():
            assert pathlib.Path(clone, n).read_bytes() == data

    def test_gen_requires_generate_source(self, tmp_path, tiny_cfg):
        cfg = ExperimentConfig.from_dict(
            dict(TINY_RAW, trace={"source": "file", "path": "x.csv"})
        )
        with pytest.raises(ConfigError):
            run_stage("gen", cfg, str(tmp_path))

    def test_file_trace_too_short_to_split(self, tmp_path):
        # a file trace's length is known only when preprocess reads it
        trace_path = tmp_path / "trace.csv"
        write_trace(trace_path, generate_trace(TINY_RAW["trace"]["pattern"], 5, 0, AddressConfig()))
        cfg = ExperimentConfig.from_dict(dict(TINY_RAW, trace={"source": "file", "path": str(trace_path)}))
        run_dir = tmp_path / "run"
        with pytest.raises(SplitError, match="of 5 records leaves these parts empty: validation$"):
            run_stage("preprocess", cfg, str(run_dir))
        assert not (run_dir / "manifest_preprocess.json").exists()

    def test_unknown_stage(self, tiny_cfg, tmp_path):
        with pytest.raises(ConfigError):
            run_stage("deploy", tiny_cfg, str(tmp_path))

    def test_sweep_report_count(self, full_run, tiny_cfg):
        reports = json.loads(pathlib.Path(full_run, "sweep_reports.json").read_text())
        want = (len(tiny_cfg.sweep.latencies) * len(tiny_cfg.sweep.throughputs)
                * len(tiny_cfg.sweep.distance))
        assert len(reports) == want

    def test_eval_covers_all_modes(self, full_run):
        metrics = json.loads(pathlib.Path(full_run, "eval_metrics.json").read_text())
        modes = {row["mode"] for row in metrics["modes"]}
        assert modes == {"as6", "delta"}
        by_mode = {row["mode"]: row for row in metrics["modes"]}
        assert by_mode["as6"]["dictionary_entries"] == 0
        assert by_mode["delta"]["dictionary_entries"] > 0

    def test_sweep_after_train_fits_only_new_labels(self, tiny_cfg, full_run, tmp_path, monkeypatch):
        # skip 0 is train's label, so the sweep reads model.ckpt and fits its one distance skip
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        real, fits = pipeline._fit, []
        monkeypatch.setattr(pipeline, "_fit", lambda *args: fits.append(1) or real(*args))
        run_stage("sweep", tiny_cfg, clone)
        assert len(fits) == 1

    def test_sweep_simulates_each_distinct_point_once(self, tiny_cfg, full_run, tmp_path, monkeypatch):
        # at latency 0 the dp and nodp points share skip 0 and one latency model: one simulation
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        real, runs = pipeline.simulate, []
        monkeypatch.setattr(pipeline, "simulate", lambda *args: runs.append(1) or real(*args))
        run_stage("sweep", tiny_cfg, clone)
        assert len(runs) == 3
        reports = json.loads(pathlib.Path(clone, "sweep_reports.json").read_text())
        assert reports["T0_L_dp"] == reports["T0_L_nodp"]

    def test_sweep_builds_its_datasets_once(self, tiny_cfg, full_run, tmp_path, monkeypatch):
        # skips 0 and ceil(100 / cpa) share one encoding; only their labels differ
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        real, builds = pipeline.build_datasets, []
        monkeypatch.setattr(pipeline, "build_datasets", lambda *args: builds.append(1) or real(*args))
        run_stage("sweep", tiny_cfg, clone)
        assert len(builds) == 1

    def test_sweep_frees_each_skips_model_before_the_next_fit(self, tiny_cfg, tmp_path, monkeypatch):
        # with no train checkpoint the sweep fits both skips; when the second fit starts,
        # nothing may still hold the params of the first
        run_stage("gen", tiny_cfg, str(tmp_path))
        real, fitted = pipeline._fit, []

        def fit(*args):
            assert all(ref() is None for ref in fitted), "the previous skip's params are alive"
            params, log = real(*args)
            fitted.append(weakref.ref(params))
            return params, log

        monkeypatch.setattr(pipeline, "_fit", fit)
        run_stage("sweep", tiny_cfg, str(tmp_path))
        assert len(fitted) == 2

    def test_sweep_checks_every_skip_before_fitting(self, tmp_path, monkeypatch):
        # the default config's distance skips leave no in-bound deltas on its stride-3 trace
        cfg = ExperimentConfig.from_dict({})
        run_stage("gen", cfg, str(tmp_path))
        monkeypatch.setattr(pipeline, "_fit", lambda *args: pytest.fail("sweep fitted before checking skips"))
        with pytest.raises(TrainingError, match="skip=50 accesses"):
            run_stage("sweep", cfg, str(tmp_path))

    @pytest.mark.parametrize("stage", ["eval", "sweep"])
    def test_retrain_matches_reused_checkpoint(self, tiny_cfg, full_run, tmp_path, stage):
        # without a train manifest a stage fits the main model itself: same weights, same outputs
        for name in ("gen", "preprocess", stage):
            run_stage(name, tiny_cfg, str(tmp_path))
        if stage == "sweep":
            for name in ("sweep_reports.json", "sweep_comparison.csv"):
                assert (tmp_path / name).read_bytes() == pathlib.Path(full_run, name).read_bytes(), name
            return
        fresh, reused = (
            json.loads(pathlib.Path(d, "eval_metrics.json").read_text())["modes"][0]
            for d in (str(tmp_path), full_run)
        )
        assert reused.pop("reused_main_model") is True
        assert fresh.pop("reused_main_model") is False
        assert fresh == reused

    def test_fit_returns_checkpoint_weights(self, tiny_cfg, full_run):
        train_ds, val_ds = (LabeledDataset.load(os.path.join(full_run, f"dataset_as6_{part}.bin"))
                            for part in ("train", "validation"))
        params, _ = pipeline._fit(tiny_cfg, tiny_cfg.features, train_ds, val_ds)
        saved = ModelParams.load(os.path.join(full_run, "model.ckpt"))
        assert params.encode() == saved.encode()
        for (n1, t1), (n2, t2) in zip(params.items(), saved.items()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_simulate_reports_per_prefetcher(self, full_run):
        reports = json.loads(pathlib.Path(full_run, "sim_reports.json").read_text())
        assert set(reports) == {"model", "next_line"}

    def test_miss_timeline_artifacts(self, full_run):
        for name in ("model", "next_line"):
            path = os.path.join(full_run, f"miss_timeline_{name}.csv")
            assert os.path.exists(path)
            rows = pathlib.Path(path).read_text().splitlines()
            assert rows[0] == "access,misses,miss_rate"
            assert len(rows) > 1

    def test_report_reads_only_artifacts(self, tiny_cfg, full_run, tmp_path):
        # the raw trace can disappear after simulate; report still works
        import shutil
        clone = tmp_path / "clone"
        shutil.copytree(full_run, clone)
        os.remove(clone / "trace.csv.gz")
        run_stage("report", tiny_cfg, str(clone))
        assert (clone / "summary.json").exists()

    def test_degree_histogram_without_model_is_first_configured(self, tmp_path):
        # report's plot shows the first prefetcher in config order: its title and its bars
        raw = dict(TINY_RAW, trace=dict(TINY_RAW["trace"], length=600),
                   simulate={"prefetchers": ["stride", "next_line"]})
        cfg = ExperimentConfig.from_dict(raw)
        for stage in ("gen", "preprocess", "train", "tune", "simulate", "report"):
            run_stage(stage, cfg, str(tmp_path))
        reports = json.loads((tmp_path / "sim_reports.json").read_text())
        hist = reports["stride"]["degree_hist"]
        assert hist != reports["next_line"]["degree_hist"]
        svg = (tmp_path / "degree_hist.svg").read_text()
        assert "Prefetch degree histogram (stride)" in svg
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(svg)
        bars = [float(r.get("height")) for r in root.iter(f"{ns}rect") if r.get("fill") not in ("white", "none")]
        label_y = str(plots.HEIGHT - plots.MARGIN_B + 16)
        labels = [t.text for t in root.iter(f"{ns}text") if t.get("y") == label_y]
        degrees = sorted(hist, key=int)
        assert labels == degrees
        counts = [hist[d] for d in degrees]  # a bar's height is its count times one scale
        assert np.allclose(np.array(bars) * max(counts) / max(bars), counts, rtol=1e-5, atol=0)

    @pytest.mark.parametrize("mode", ["delta", "page_offset"])
    def test_dictionary_mode_simulates_with_the_preprocess_dictionary(self, mode, tmp_path, monkeypatch):
        # simulate rebuilds the model prefetcher's dictionary from dictionaries.json
        raw = dict(TINY_RAW, trace=dict(TINY_RAW["trace"], length=600), features={"mode": mode},
                   simulate={"prefetchers": ["model"]})
        cfg = ExperimentConfig.from_dict(raw)
        reloaded, simulate = [], pipeline.simulate

        def recording_simulate(trace, pf, *args, **kwargs):
            reloaded.append(pf.dictionary)
            return simulate(trace, pf, *args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate", recording_simulate)
        for stage in ("gen", "preprocess", "train", "tune", "simulate"):
            run_stage(stage, cfg, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
        assert "dictionaries.json" in manifest["inputs"]
        trace = pipeline.read_trace(str(tmp_path / "trace.csv.gz"))
        grown = build_datasets(trace, split_trace(trace, cfg.split), cfg.features, cfg.label,
                               cfg.address, cfg.model.history_len).dictionaries
        [dictionary] = reloaded
        assert len(dictionary) > 0
        assert dictionary.to_pairs() == next(iter(grown.values())).to_pairs()

    def test_summary_structure(self, full_run):
        summary = json.loads(pathlib.Path(full_run, "summary.json").read_text())
        assert {"threshold", "simulation", "input_ablation", "training", "sweep"} <= set(summary)
        assert (os.path.exists(os.path.join(full_run, "threshold_f1.svg"))
                and os.path.exists(os.path.join(full_run, "sweep.svg")))


class TestSweepRelabel:
    @pytest.mark.parametrize("mode", ["as", "delta"])
    @pytest.mark.parametrize("skip", [0, 3, 17])
    def test_relabel_matches_a_build_at_that_skip(self, mode, skip):
        addr_cfg = AddressConfig()
        trace = generate_trace({"name": "interleaved"}, 400, seed=3)
        split = split_trace(trace, (0.5, 0.2, 0.3))
        fc, base = FeatureConfig(mode), LabelConfig(look_forward=16, delta_bound=64, skip=5)
        built = build_datasets(trace, split, fc, base, addr_cfg, history_len=5)
        label_cfg = replace(base, skip=skip)
        want = build_datasets(trace, split, fc, label_cfg, addr_cfg, history_len=5)
        blocks = block_addresses(trace, addr_cfg)
        for part in ("train", "validation", "test"):
            got, ref = pipeline._relabel(getattr(built, part), blocks, label_cfg), getattr(want, part)
            assert not np.array_equal(getattr(built, part).labels, ref.labels), part  # skip 5 labels differ
            for name in ("labels", "inputs", "contexts", "triggers"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (part, name)
        assert ({k: d.to_pairs() for k, d in built.dictionaries.items()}
                == {k: d.to_pairs() for k, d in want.dictionaries.items()})


class TestIdempotence:
    def test_rerun_reproduces_artifact_hashes(self, tiny_cfg, tmp_path):
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for d in (d1, d2):
            for stage in ("gen", "preprocess", "train", "tune"):
                run_stage(stage, tiny_cfg, d)
        for stage in ("gen", "preprocess", "train", "tune"):
            m1 = json.loads(pathlib.Path(d1, f"manifest_{stage}.json").read_text())
            m2 = json.loads(pathlib.Path(d2, f"manifest_{stage}.json").read_text())
            assert m1["outputs"] == m2["outputs"], stage


class TestCli:
    def write_config(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(TINY_RAW))
        return str(cfg_path)

    def test_stage_success_exit_zero(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        run_dir = str(tmp_path / "run")
        assert cli.main(["gen", "--config", cfg_path, "--run-dir", run_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stage"] == "gen"
        assert os.path.exists(os.path.join(run_dir, "trace.csv.gz"))

    def test_failure_emits_error_record(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        rc = cli.main(["train", "--config", cfg_path, "--run-dir", str(tmp_path / "r")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "StageDependencyError"
        assert record["stage"] == "train"

    def test_seed_override_changes_run_dir(self, tmp_path, capsys, monkeypatch):
        cfg_path = self.write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen", "--config", cfg_path]) == 0
        d1 = json.loads(capsys.readouterr().out)["run_dir"]
        assert cli.main(["gen", "--config", cfg_path, "--seed", "999"]) == 0
        d2 = json.loads(capsys.readouterr().out)["run_dir"]
        assert d1 != d2

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"hidden_dim": 10, "num_heads": 4}}))
        assert cli.main(["gen", "--config", str(bad)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"


# The benchmark's three workload configs at seed 1, copied here rather than imported
# from bench/, so that the pins below move only with the program
_RULES_REGIONS = [
    {"start_page": 0x10000, "pages": 4096, "walk": [1] * 6},
    {"start_page": 0x20000, "pages": 4096, "walk": [4] * 6},
    {"start_page": 0x30000, "pages": 4096, "walk": [9] * 6},
    {"start_page": 0x40000, "pages": 2, "walk": [1] * 6},
]
WORKLOAD_RUNS = {
    "stride-pipeline": ({
        "seed": 1,
        "trace": {"source": "generate",
                  "pattern": {"name": "stride", "stride": 3, "cycle_step": 25}, "length": 2000},
        "model": {"hidden_dim": 32, "num_heads": 2, "num_layers": 1, "history_len": 9},
        "train": {"max_epochs": 12, "batch_size": 256, "patience": None},
        "eval_modes": [{"mode": "delta"}, {"mode": "page_offset"}],
        "simulate": {"prefetchers": ["model", "next_line", "stride", "best_offset"]},
    }, ("gen", "preprocess", "train", "tune", "eval", "simulate", "report")),
    "latency-sweep": ({
        "seed": 1,
        "trace": {"source": "generate",
                  "pattern": {"name": "stride", "stride": 3, "cycle_step": 25}, "length": 300},
        "model": {"hidden_dim": 128, "num_heads": 4, "num_layers": 2, "history_len": 9},
        "train": {"max_epochs": 2, "batch_size": 256, "patience": None},
        "label": {"look_forward": 32},
        "cache": {"sets": 32, "ways": 8},
        "sweep": {"latencies": [0, 200], "throughputs": ["L", "H"], "distance": [True, False]},
    }, ("gen", "sweep")),
    "rules-llc": ({
        "seed": 1,
        "trace": {"source": "generate",
                  "pattern": {"name": "region_walks", "regions": _RULES_REGIONS}, "length": 100000},
        "trigger_stream": "miss",
        "simulate": {"prefetchers": ["next_line", "stride", "best_offset"]},
    }, ("gen", "simulate")),
}

# SHA-256 of every file each run leaves in its run directory. Checkpoints, training
# logs and metrics depend on float arithmetic, so the pins hold for the builds in
# PIN_BUILD; a change that moves bytes on purpose re-records them in the same commit.
PIN_BUILD = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
RUN_PINS = {
    "TINY_RAW": {
        "coverage_accuracy.svg":
            "8a3a9a9023cd60f949742163e93a1e8a9b1aaf84c0da6a2f0cf4b39ec51104bd",
        "dataset_as6_test.bin":
            "1ea9a31026e9e735b03e71d3b939e7d8c9a630922d242f40a7e6c715583d42b0",
        "dataset_as6_train.bin":
            "da016482c712efe574bda9204cb461fb58f2cd42cba3a7dd3854832d000d5504",
        "dataset_as6_validation.bin":
            "127d47c4f1b7c41cc188fcac7f2778c7f311a16e20cf260852a318339eff9f56",
        "dataset_delta_test.bin":
            "f47378356d605aae6b781f3614137f4512049c42e26ccbc7ea478e078d2d2fb6",
        "dataset_delta_train.bin":
            "635ab3330cda617934a9130601a5d5eddd0fa3bf970fa45060732f6f16d94ccd",
        "dataset_delta_validation.bin":
            "4b4f3ce33b0b1b8246f8731ea7dc7d863a468d505a224a941ec7a2fea4af34aa",
        "degree_hist.svg":
            "9218b044aa76d86c0988d5fc5440a1c520128d838dfc3c088e115a06c764a9a2",
        "dictionaries.json":
            "dc22a1ed2835efce1f09725a809fd806020009f1efaf79e0b053dd761e0c913b",
        "eval_metrics.json":
            "258a7a2702eef1dfa9c3ae9ac6b217cbe2452b61110a76432fd54fbb4ee408f1",
        "eval_model_delta.ckpt":
            "a6fc59e0f04efe293a802c3428bee481befd0c5692deb718be1f98edc728e69a",
        "manifest_eval.json":
            "5b879247f0c1ba51ff00f7c8aded1e2d745c5ea249cc4c66ee39620754273b81",
        "manifest_gen.json":
            "cb40cb61f6ed81d940badb92c311b04554757c490686bb51ab06c1b6c5d7e1af",
        "manifest_preprocess.json":
            "379e3e17b0217313fe35226ab85012e15256264508105f5212b7aa0e92c416f1",
        "manifest_report.json":
            "2b944dbaf2932fe0519230419f4b2208bfe3b7d72ba261f2a18af9d8678df03d",
        "manifest_simulate.json":
            "6e2a6625b63c3c6f2f49085384223abaf20ea3bef112efffebadafa7e9f97555",
        "manifest_sweep.json":
            "e61d046016ae0eef76def0f9d0a0d2fb1d76369315884b7be1b759a5ce0a3450",
        "manifest_train.json":
            "377881841f4b5749b88fe8cccf7f5e7682b41728162daae0f5a0e8170e0e740b",
        "manifest_tune.json":
            "560e3849a7fdc9236a309cdee8dbeb07a3dca94a0d02b87b1af1c9e6b308e006",
        "miss_timeline_model.csv":
            "bf37b6545cda239de2d0d6f1ec554748d7e115115afc5c65d33c355defc684ba",
        "miss_timeline_next_line.csv":
            "fbcfe108cf0b688dc1ca969e1145e5f84661e7bf775102cc1100233b2f6179ff",
        "model.ckpt":
            "6bcf221b4ee987163a9066826c6349ae13068615dd4f0dbda3ada2d935daae84",
        "sim_reports.json":
            "0378e726fe160fc7bef056e545dfc63fcb325be233e2af88b94fb9ce444167ca",
        "summary.json":
            "6bc0e77080acbf261513e15e58ea1610d24de4aaa3256a4e6084b25c64e71af6",
        "sweep.svg":
            "ea0a7a3617697e46931a7030dc438ab529ea584f784b280b0ff51dbea1e4c359",
        "sweep_comparison.csv":
            "ef53ce0a041acc9e6a548393d45eeb49492418cbec8f975655765d38ddf684a8",
        "sweep_reports.json":
            "45801a6064b6194e822b05b4fa68da6a379b8290448c967df5225840f02fa270",
        "threshold.json":
            "41d47ba4bfd6e6a627b578cd1feb58a8ca8b81df355ca57648220dc8e0cfed1b",
        "threshold_f1.svg":
            "7b40650bef8000df833527dd9addd8f73bfe05dfb15367bc1a67c3a05ae3ac2a",
        "trace.csv.gz":
            "c6c7f18fce57f61c8f5ed898fa8e2d85b843cce50689e61e1f1b81acae34d24b",
        "training_log.csv":
            "1887e24fc3ea202e9fdaf8b0b4998937553ab28c35175e0dcbfe255b6995f7db",
    },
    "stride-pipeline": {
        "coverage_accuracy.svg":
            "8789f49647fbc27011326aa36a29f7f16b9f661d1811f60299fdabf991eddb9f",
        "dataset_as6_test.bin":
            "0c7da24b0921c0e3290b9c38258bcb3c4ec08a04e7483a4c6de175ec5cc79dbc",
        "dataset_as6_train.bin":
            "09b2d07c399fe35faa1dbece5764a8def30d8a5391cff0f4b7ff4405a994c08b",
        "dataset_as6_validation.bin":
            "2fb556529ce71f0ed869f3c338b5c3e7f039081450d45ea8018dc2bfb187f631",
        "dataset_delta_test.bin":
            "1403971b48ed3cdb0e359fbfb73412235f8ecfd862018368b49f76b7ec87a8be",
        "dataset_delta_train.bin":
            "e337737854fd82a07253ac82c8d7a32fa6f6c127e6c4fa24e6c0c0785c636367",
        "dataset_delta_validation.bin":
            "ff6eae24f496318bb316ea0e89d54c5660547f4c34ecd37681dbd3452a795b9d",
        "dataset_page_offset_test.bin":
            "036b2d24581fbaa8db77182bcc25ad22cf08dd0e478172bf55d6ce3e8735ede8",
        "dataset_page_offset_train.bin":
            "7ba38bb404d9a1df6fc37e8cbd4111f5ffdce444378037de7c405821be2808fc",
        "dataset_page_offset_validation.bin":
            "e9ee6a34cf8299435b327302bf91f5200ee293e294c416c045361783cbf1b7d3",
        "degree_hist.svg":
            "87e944f572e8abd167443f68331eda538cd3a7034b150e4f499b70a1f1322527",
        "dictionaries.json":
            "4e7bff3d86a3ea8c861bb1d3fa5c9574a0dfa199dfefa127ffa2d7d9473e2112",
        "eval_metrics.json":
            "7feaacd539f8c027a0617dc35274f9103e371587e78c3989aa8f56d5b7f4563b",
        "eval_model_delta.ckpt":
            "bbc7262ae496b5f66c05594c99ffb25ca2e44b941ce238f2ce8bdc9c21088df0",
        "eval_model_page_offset.ckpt":
            "cff1567587bb005906245fac2e588dbcc4b7e6ab49dd246d675c457e80072468",
        "manifest_eval.json":
            "c164ae511834b5fc60c78ca190334bce1dcbf4b5e58c8ca27aa1923f79116223",
        "manifest_gen.json":
            "5a9434d6e2bf749f1e5c043789cc293810f5dd1d7f20114c10ca65d992ceb35a",
        "manifest_preprocess.json":
            "092b9413687b12d700addc1d293cd31e6093003b8d9c8e720d776e1cbd24f0c9",
        "manifest_report.json":
            "c69243bfdb52e04bb3901b38744481f2382ffe07fc4fa0db4da199e54afbab83",
        "manifest_simulate.json":
            "2473db67818b2c2c58566773d241aef065ff9241ae11e1115fa47bef23eb4d57",
        "manifest_train.json":
            "caeb8576b9b41e68e7ffb41e6ac0957c89e47877581d484a230880642750b820",
        "manifest_tune.json":
            "8d17df1cdd98b6663543f1b4b0503227d1172bd6721e7193175165d612237191",
        "model.ckpt":
            "d734f4040e47eba29392823bec14acb08ef651d6bf20fe34a88bf5296e1cba0a",
        "sim_reports.json":
            "93dd7263780816f53b042ed562f4ea5915ac9d9c1a8838df7ca394d46019d03f",
        "summary.json":
            "d8cdfa948ae4bfea84f88fc62368cd9beea9a09a46148faca695157055ecef73",
        "threshold.json":
            "f8e2a6a662813c3301b1567c9292a9feaa24d5dbd122f62d529ebcd5155f4c1a",
        "threshold_f1.svg":
            "3af1694c49f9828e88877593bdbe4e75a07ca29ba334d75b7057f69433baa8da",
        "trace.csv.gz":
            "a35fd994319fe58211c0bb935e4366644fbfe4088840752c141db30bfd33f95d",
        "training_log.csv":
            "fb3453ef0644a5dc85ecbb681dbacee1068225df9cf9b35dd394a40be0300132",
    },
    "latency-sweep": {
        "manifest_gen.json":
            "a2fb37df08499a6a23eabfc0d6a9fba15b7a3c16ae43eb57ae61031aff5db74e",
        "manifest_sweep.json":
            "75d6d9a1b8f7cfec6e3581a4686cec4c609b3ebc5d92a9ae6704333bbd089fda",
        "sweep_comparison.csv":
            "1e23bd748a4bc1dcc505d061aa46b65e135ec5f96d9e77c4786925026e7c2023",
        "sweep_reports.json":
            "017ab5125d53a6ea0cdfefe82d4729ab47b6d98b311cd6d58efd0f9c265c9df2",
        "trace.csv.gz":
            "9ae2c0e824994769b81c2a9f869835cf7b3a6bc46dce9818d68081a9edde07a0",
    },
    "rules-llc": {
        "manifest_gen.json":
            "b2cbe0237221cc80759ed922db70ed45bb6290a41e15ffed30753ebf22883a6f",
        "manifest_simulate.json":
            "4777a3041515c805dd31f71b1f83a5ca80ad3b2e15f3d93914ca8f99fc3e329e",
        "sim_reports.json":
            "e6bacc82be4ff3fae56fdfc48ebdeab76f8e5f217e49b38c5e994a49897c7d4c",
        "trace.csv.gz":
            "2f72ac5c2f3c5fab29e2979cd827809742505f007408010d4a481b2a7b263f15",
    },
}


def numpy_build() -> str:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return ", ".join([f"numpy {np.__version__}", f"{blas['name']} {blas['version']}", *openblas_core()])


def openblas_core() -> list[str]:
    """The OpenBLAS kernel: ``OPENBLAS_CORETYPE`` where it is set, and the core that the library
    bundled with numpy reports, where it can be read. Another kernel can move float bytes."""
    forced = os.environ.get("OPENBLAS_CORETYPE")
    core = [f"OPENBLAS_CORETYPE={forced}"] if forced else []
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_-*.so")
    try:
        corename = ctypes.CDLL(glob.glob(libs)[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):  # no bundled library, or one without the call
        return core
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    name = corename()
    return [*core, f"core {name.decode()}"] if name else core


def run_digests(run_dir) -> dict:
    return {name: hashlib.sha256(pathlib.Path(run_dir, name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(run_dir))}


def readme_run_directory_rows() -> dict[str, str]:
    """README's "Run directory" table: each row's file name, as a pattern in which a
    ``<placeholder>`` stands for one word, mapped to the name as the row gives it."""
    text = pathlib.Path(REPO, "README.md").read_text()
    table = text.split("\n## Run directory\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    return {re.sub(r"<\w+>", r"\\w+", re.escape(n)): n for n in names}


@pytest.fixture(scope="module")
def workload_run(tmp_path_factory):
    """The run directory of a benchmark workload, built once for the tests that read it."""
    built = {}

    def run_dir(name):
        if name not in built:
            raw, stages = WORKLOAD_RUNS[name]
            cfg = ExperimentConfig.from_dict(raw)
            built[name] = tmp_path_factory.mktemp(name)
            for stage in stages:
                run_stage(stage, cfg, str(built[name]))
        return built[name]

    return run_dir


class TestPinnedRunBytes:
    """Every run-directory file of four runs, byte for byte, against digests recorded before."""

    @staticmethod
    def check(name, run_dir):
        got, want = run_digests(run_dir), RUN_PINS[name]
        missing = sorted(want.keys() - got.keys())
        unpinned = sorted(got.keys() - want.keys())
        moved = sorted(f for f in got.keys() & want.keys() if got[f] != want[f])
        assert not (missing or unpinned or moved), (
            f"{name}: missing from the run {missing}, not pinned {unpinned}, bytes moved {moved}; "
            f"the pins were recorded under {PIN_BUILD}, this run used {numpy_build()}")

    def test_tiny_raw(self, full_run):
        self.check("TINY_RAW", full_run)

    @pytest.mark.parametrize("name", sorted(WORKLOAD_RUNS))
    def test_workload(self, name, workload_run):
        self.check(name, workload_run(name))

    def test_every_file_is_a_listed_output_with_a_readme_row(self, full_run, workload_run):
        rows = readme_run_directory_rows()
        seen = set()
        for name, run_dir in [("TINY_RAW", full_run), *((n, workload_run(n)) for n in sorted(WORKLOAD_RUNS))]:
            files = set(os.listdir(run_dir))
            manifests = {f for f in files if re.fullmatch(r"manifest_\w+\.json", f)}
            listed = set().union(*(json.loads(pathlib.Path(run_dir, m).read_text())["outputs"]
                                   for m in manifests))
            unlisted = sorted(files - manifests - listed)
            assert not unlisted, f"{name}: no manifest lists {unlisted}"
            no_row = sorted(f for f in files if not any(re.fullmatch(p, f) for p in rows))
            assert not no_row, f"{name}: README's run-directory table has no row for {no_row}"
            seen |= {p for p in rows for f in files if re.fullmatch(p, f)}
        stale = sorted(rows[p] for p in rows.keys() - seen)
        assert not stale, f"README's run-directory table has rows that no run writes: {stale}"
