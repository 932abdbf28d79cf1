import ast
import copy
import json
import os
import re
import shutil

import numpy as np
import pytest

import tests.test_acceptance as acceptance
from tests.test_model import byte_classes
from prefetchlab import cli, pipeline
from prefetchlab.datasets import LabeledDataset
from prefetchlab.features import FeatureConfig, SegmentationConfig
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import LatencyCosts, ModelConfig, ModelParams, TrainConfig
from prefetchlab.pipeline import (
    ConfigError,
    ExperimentConfig,
    StageDependencyError,
    StaleArtifactsError,
    config_hash,
    load_config,
    run_stage,
)
from prefetchlab.simulator import CacheConfig, LatencyModel
from prefetchlab.trace import AddressConfig

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
    "features.segment_bits=60": ({"features": {"segment_bits": 60}}, "features"),
    "eval_modes[0].segment_bits=60": ({"eval_modes": [{"segment_bits": 60}]}, "eval_modes[0]"),
}


def _demo08_raw():
    source = open(os.path.join(REPO, "demos", "08_pipeline_stages.py")).read()
    return ast.literal_eval(re.search(r"from_dict\((\{.*?\})\)\n", source, re.S).group(1))


def _readme_raw():
    readme = open(os.path.join(REPO, "README.md")).read()
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
        with pytest.raises(ConfigError, match=re.escape(path)):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("raw, path", list(PROBES.values()), ids=list(PROBES))
    def test_probe_raises_at_load(self, tmp_path, raw, path):
        with pytest.raises(ConfigError, match=re.escape(path)):
            ExperimentConfig.from_dict(raw)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=re.escape(path)):
            load_config(str(cfg_path))

    @pytest.mark.parametrize("raw, expected", [
        (TINY_RAW, "0a4a4c81509ce00cf4b1eaa3f919d1327315571bbab5d1316e98c6885d39ddd9"),
        (acceptance.TestDeterminism.RAW, "456f634f7fdac1b06068d2f803d5e0edf5ad178c353c0770a5b96bdd93c9b17d"),
        (_demo08_raw(), "da9fdce00f3ba91486044eee592a521bf1a8cb5c31d84cdc7407a9313376e933"),
        (_readme_raw(), "f9a825f86ab34efe19fde1e7052a94eba4bd5eea179994b1ad1fd5d37138c52e"),
    ], ids=["TINY_RAW", "determinism", "demo08", "readme"])
    def test_config_hash_pinned(self, raw, expected):
        assert config_hash(ExperimentConfig.from_dict(raw)) == expected

    @pytest.mark.parametrize("make", [
        lambda: AddressConfig(page_size_bits=12.0),
        lambda: SegmentationConfig(True),
        lambda: FeatureConfig(hash_bits=40),
        lambda: LabelConfig(look_forward=2.5),
        lambda: ModelConfig(use_context="yes"),
        lambda: TrainConfig(adam_eps=0),
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


class TestStages:
    def test_all_manifests_written(self, full_run):
        for stage in pipeline.STAGES:
            path = os.path.join(full_run, f"manifest_{stage}.json")
            assert os.path.exists(path), stage
            manifest = json.load(open(path))
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
            "sweep": {"trace.csv.gz"},
            "report": {"threshold.json", "sim_reports.json", "eval_metrics.json",
                       "training_log.csv", "sweep_comparison.csv"},
        }
        for stage, names in want.items():
            manifest = json.load(open(os.path.join(full_run, f"manifest_{stage}.json")))
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
    ])
    def test_corrupt_artifact_refused(self, tiny_cfg, full_run, tmp_path, name, stage):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        path = os.path.join(clone, name)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        open(path, "wb").write(bytes(data))
        with pytest.raises(StaleArtifactsError, match=name):
            run_stage(stage, tiny_cfg, clone)

    def test_checkpoint_fuzz_refused_by_tune(self, tiny_cfg, full_run, tmp_path):
        # one bit flipped in each byte class of model.ckpt, then the file cut at each
        # class boundary: tune refuses every one on the hash train recorded
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        path = os.path.join(clone, "model.ckpt")
        raw = open(path, "rb").read()
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

    def test_malformed_manifest_refused(self, tiny_cfg, full_run, tmp_path):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        with open(os.path.join(clone, "manifest_train.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(StaleArtifactsError, match="manifest_train.json"):
            run_stage("tune", tiny_cfg, clone)

    @pytest.mark.parametrize("edit", [
        lambda m: [],
        lambda m: {k: v for k, v in m.items() if k != "outputs"},
        lambda m: dict(m, outputs=list(m["outputs"])),
    ], ids=["list", "no-outputs", "outputs-not-object"])
    def test_misshapen_manifest_refused(self, tiny_cfg, full_run, tmp_path, edit):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        path = os.path.join(clone, "manifest_gen.json")
        manifest = json.load(open(path))
        with open(path, "w") as fh:
            json.dump(edit(manifest), fh)
        with pytest.raises(StaleArtifactsError, match="manifest_gen.json"):
            run_stage("simulate", tiny_cfg, clone)

    def test_failed_stage_leaves_earlier_outputs(self, tiny_cfg, full_run, tmp_path, monkeypatch):
        clone = str(tmp_path / "clone")
        shutil.copytree(full_run, clone)
        before = {n: open(os.path.join(clone, n), "rb").read()
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
            assert open(os.path.join(clone, n), "rb").read() == data

    def test_gen_requires_generate_source(self, tmp_path, tiny_cfg):
        cfg = ExperimentConfig.from_dict(
            dict(TINY_RAW, trace={"source": "file", "path": "x.csv"})
        )
        with pytest.raises(ConfigError):
            run_stage("gen", cfg, str(tmp_path))

    def test_unknown_stage(self, tiny_cfg, tmp_path):
        with pytest.raises(ConfigError):
            run_stage("deploy", tiny_cfg, str(tmp_path))

    def test_sweep_report_count(self, full_run, tiny_cfg):
        reports = json.load(open(os.path.join(full_run, "sweep_reports.json")))
        want = (len(tiny_cfg.sweep.latencies) * len(tiny_cfg.sweep.throughputs)
                * len(tiny_cfg.sweep.distance))
        assert len(reports) == want

    def test_eval_covers_all_modes(self, full_run):
        metrics = json.load(open(os.path.join(full_run, "eval_metrics.json")))
        modes = {row["mode"] for row in metrics["modes"]}
        assert modes == {"as6", "delta"}
        by_mode = {row["mode"]: row for row in metrics["modes"]}
        assert by_mode["as6"]["dictionary_entries"] == 0
        assert by_mode["delta"]["dictionary_entries"] > 0

    def test_eval_retrain_matches_reused_checkpoint(self, tiny_cfg, full_run, tmp_path):
        # without a train manifest eval fits the main mode itself: same weights, same row
        for stage in ("gen", "preprocess", "eval"):
            run_stage(stage, tiny_cfg, str(tmp_path))
        fresh, reused = (
            json.load(open(os.path.join(d, "eval_metrics.json")))["modes"][0]
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
        assert params.checksum() == saved.checksum()
        for (n1, t1), (n2, t2) in zip(params.items(), saved.items()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_simulate_reports_per_prefetcher(self, full_run):
        reports = json.load(open(os.path.join(full_run, "sim_reports.json")))
        assert set(reports) == {"model", "next_line"}

    def test_miss_timeline_artifacts(self, full_run):
        for name in ("model", "next_line"):
            path = os.path.join(full_run, f"miss_timeline_{name}.csv")
            assert os.path.exists(path)
            rows = open(path).read().splitlines()
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

    def test_summary_structure(self, full_run):
        summary = json.load(open(os.path.join(full_run, "summary.json")))
        assert {"threshold", "simulation", "input_ablation", "training", "sweep"} <= set(summary)
        assert (os.path.exists(os.path.join(full_run, "threshold_f1.svg"))
                and os.path.exists(os.path.join(full_run, "sweep.svg")))


class TestIdempotence:
    def test_rerun_reproduces_artifact_hashes(self, tiny_cfg, tmp_path):
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for d in (d1, d2):
            for stage in ("gen", "preprocess", "train", "tune"):
                run_stage(stage, tiny_cfg, d)
        for stage in ("gen", "preprocess", "train", "tune"):
            m1 = json.load(open(os.path.join(d1, f"manifest_{stage}.json")))
            m2 = json.load(open(os.path.join(d2, f"manifest_{stage}.json")))
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
