import json
import os
import shutil

import numpy as np
import pytest

from prefetchlab import cli, pipeline
from prefetchlab.datasets import LabeledDataset
from prefetchlab.model import ModelParams
from prefetchlab.pipeline import (
    ConfigError,
    ExperimentConfig,
    StageDependencyError,
    StaleArtifactsError,
    config_hash,
    load_config,
    run_stage,
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
