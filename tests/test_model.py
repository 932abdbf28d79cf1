import dataclasses
import gc
import hashlib
import itertools
import math
import struct
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from prefetchlab import autodiff as ad
from prefetchlab import model as model_module
from prefetchlab.autodiff import Tensor
from prefetchlab.model import (
    CHECKPOINT_MAGIC,
    AdamOptimizer,
    LatencyCosts,
    ModelConfig,
    ModelParams,
    NumericError,
    PREDICT_BATCH,
    TrainConfig,
    TrainingError,
    attention,
    bce_loss,
    estimate_latency,
    feed_forward,
    forward,
    gradient_check,
    multi_head_attention,
    predict,
    train,
)
from prefetchlab.model import _param_count, _param_spec
from tests.conftest import address_space_cap
from tests.test_autodiff import reachable, retaining_backward

TINY = ModelConfig(hidden_dim=8, num_heads=2, num_layers=2, output_dim=16,
                   history_len=4, input_dim=5)
# the refusal of one unbatched (history_len, input_dim) sample names the expected shape
UNBATCHED = r"input shape \(4, 5\) != \(batch, history_len, input_dim\) = \(batch, 4, 5\)"


def tiny_batch(n=3, cfg=TINY, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, cfg.history_len, cfg.input_dim))
    c = rng.uniform(0.01, 1, (n, cfg.history_len, 2))
    y = rng.integers(0, 2, (n, cfg.output_dim)).astype(float)
    return x, c, y


class TestAttention:
    def test_singleton_softmax(self):
        out = attention(Tensor([[2.0]]), Tensor([[2.0]]), Tensor([[7.0]]))
        assert np.allclose(out.data, [[7.0]])

    def test_identical_keys_average_values(self):
        q = Tensor(np.random.default_rng(0).normal(size=(1, 3)))
        k = Tensor(np.array([[0.5, 1.0, -0.2], [0.5, 1.0, -0.2]]))
        v = Tensor(np.array([[1.0, 2.0, 3.0], [5.0, 6.0, 7.0]]))
        out = attention(q, k, v)
        assert np.allclose(out.data, [[3.0, 4.0, 5.0]])

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q, k = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (1, 0))), 1 / math.sqrt(4))
        w = ad.softmax(scores, axis=-1).data
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_nonfinite_rejected(self):
        bad = Tensor(np.array([[np.nan]]))
        with pytest.raises(NumericError):
            attention(bad, bad, bad)


class TestMultiHeadAttention:
    def test_single_head_with_identity_output_projection(self):
        rng = np.random.default_rng(2)
        d = 6
        x = Tensor(rng.normal(size=(1, 5, d)))
        wq, wk, wv = (Tensor(rng.normal(size=(d, d))) for _ in range(3))
        wo = Tensor(np.eye(d))
        got = multi_head_attention(x, wq, wk, wv, wo, num_heads=1)
        want = attention(ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv))
        assert np.allclose(got.data, want.data)

    def test_output_shape(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5, 8)))
        ws = [Tensor(rng.normal(size=(8, 8))) for _ in range(4)]
        assert multi_head_attention(x, *ws, num_heads=4).shape == (2, 5, 8)

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(4)
        row = rng.normal(size=8)
        x = Tensor(np.tile(row, (1, 5, 1)))
        ws = [Tensor(rng.normal(size=(8, 8))) for _ in range(4)]
        out = multi_head_attention(x, *ws, num_heads=2).data[0]
        assert np.allclose(out, out[0])


class TestFeedForward:
    def test_relu_passthrough(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        eye = Tensor(np.eye(2))
        zero = Tensor(np.zeros(2))
        assert np.allclose(feed_forward(x, eye, zero, eye, zero).data, [[0.0, 2.0]])

    def test_zero_weights_give_bias(self):
        x = Tensor(np.ones((1, 3)))
        w = Tensor(np.zeros((3, 3)))
        b2 = Tensor(np.array([4.0, 5.0, 6.0]))
        out = feed_forward(x, w, Tensor(np.zeros(3)), w, b2)
        assert np.allclose(out.data, [[4.0, 5.0, 6.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4)) + 0.1
        w1 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b1 = Tensor(rng.normal(size=6), requires_grad=True)
        w2 = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b2 = Tensor(rng.normal(size=4), requires_grad=True)
        out = ad.sum_(feed_forward(Tensor(x), w1, b1, w2, b2))
        out.backward()

        def f():
            return float(feed_forward(Tensor(x), Tensor(w1.data), Tensor(b1.data),
                                      Tensor(w2.data), Tensor(b2.data)).data.sum())

        for t in (w1, b1, w2, b2):
            flat = t.data.reshape(-1)
            gflat = t.grad.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + 1e-5
                up = f()
                flat[i] = keep - 1e-5
                down = f()
                flat[i] = keep
                num = (up - down) / 2e-5
                assert abs(num - gflat[i]) / max(1.0, abs(num), abs(gflat[i])) < 1e-4


def reference_forward(params, inputs, contexts):
    """The unfused composition: every layer on every row, one node per matmul."""
    cfg = params.cfg
    batch = inputs.shape[0]
    x = ad.add(ad.concat([
        ad.broadcast_to(ad.reshape(params["cls_token"], (1, 1, cfg.hidden_dim)),
                        (batch, 1, cfg.hidden_dim)),
        ad.matmul(Tensor(inputs), params["embed_w"]),
    ], axis=1), params["pos_embed"])
    ctx = ad.matmul(Tensor(contexts), params["ctx_embed_w"])
    x = ad.add(x, ad.concat([Tensor(np.zeros((batch, 1, cfg.hidden_dim))), ctx], axis=1))
    for i in range(cfg.num_layers):
        p = f"layer{i}."
        attn = multi_head_attention(x, params[p + "attn_wq"], params[p + "attn_wk"],
                                    params[p + "attn_wv"], params[p + "attn_wo"], cfg.num_heads)
        x = ad.layer_norm(ad.add(x, attn), params[p + "ln1_gain"], params[p + "ln1_bias"])
        ffn = feed_forward(x, params[p + "ffn_w1"], params[p + "ffn_b1"],
                           params[p + "ffn_w2"], params[p + "ffn_b2"])
        x = ad.layer_norm(ad.add(x, ffn), params[p + "ln2_gain"], params[p + "ln2_bias"])
    head = ad.add(ad.matmul(x[:, 0, :], params["head_w"]), params["head_b"])
    return ad.sigmoid(head).data


class TestForward:
    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_matches_unpruned_reference(self, layers):
        cfg = dataclasses.replace(TINY, num_layers=layers)
        params = ModelParams.init(cfg, seed=layers)
        for name, t in params.items():  # nonzero biases, token and positions too
            t.data += np.random.default_rng(len(name)).normal(0.0, 0.3, t.shape)
        x, c, _ = tiny_batch(6, cfg, seed=layers)
        want = reference_forward(params, x, c)
        assert np.abs(forward(params, x, c).data - want).max() < 1e-12
        for i in range(len(x)):  # a batch of one, as the model prefetcher asks for
            assert np.abs(forward(params, x[i:i + 1], c[i:i + 1]).data - want[i:i + 1]).max() < 1e-12
        with pytest.raises(ValueError, match=UNBATCHED):
            forward(params, x[0], c[0])

    @pytest.mark.parametrize("name", ["layer0.attn_wk", "layer1.attn_wq", "layer1.ffn_w1"])
    def test_nonfinite_weight_raises(self, name):
        params = ModelParams.init(TINY, seed=0)
        params[name].data[0, 0] = np.inf
        x, c, _ = tiny_batch(2)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError):
                forward(params, x, c)
            with pytest.raises(NumericError):
                forward(params, x[:1], c[:1])
            with pytest.raises(ValueError, match=UNBATCHED):  # refused before any weight is read
                forward(params, x[0], c[0])

    def test_outputs_in_unit_interval(self):
        params = ModelParams.init(TINY, seed=0)
        x, c, _ = tiny_batch()
        out = predict(params, x, c)
        assert out.shape == (3, 16)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_single_sample_shape(self):
        params = ModelParams.init(TINY, seed=0)
        x, c, _ = tiny_batch(1)
        assert predict(params, x, c).shape == (1, 16)
        with pytest.raises(ValueError, match=UNBATCHED):
            predict(params, x[0], c[0])
        with pytest.raises(ValueError, match=UNBATCHED):
            forward(params, x[0], c[0])

    def test_permutation_invariance_without_positions(self):
        cfg = ModelConfig(hidden_dim=8, num_heads=2, num_layers=2, output_dim=16,
                          history_len=4, input_dim=5, use_context=False)
        params = ModelParams.init(cfg, seed=1)
        assert np.all(params["pos_embed"].data == 0.0)
        x, _, _ = tiny_batch(1, cfg)
        base = predict(params, x)
        for perm in itertools.permutations(range(4)):
            assert np.abs(predict(params, x[:, perm, :]) - base).max() < 1e-6

    def test_context_ignored_when_disabled(self):
        cfg = ModelConfig(hidden_dim=8, num_heads=2, num_layers=1, output_dim=16,
                          history_len=4, input_dim=5, use_context=False)
        params = ModelParams.init(cfg, seed=2)
        x, c, _ = tiny_batch(2, cfg)
        assert np.array_equal(predict(params, x, c), predict(params, x, None))
        assert np.array_equal(predict(params, x, c), predict(params, x, c * 0.5))

    def test_context_changes_output_when_enabled(self):
        params = ModelParams.init(TINY, seed=3)
        x, c, _ = tiny_batch(2)
        assert not np.array_equal(predict(params, x, c), predict(params, x, c * 0.5))

    def test_batches_match_per_chunk_forward(self):
        params = ModelParams.init(TINY, seed=4)
        x, c, _ = tiny_batch(PREDICT_BATCH + 7, seed=4)
        out = predict(params, x, c)
        assert out.shape == (PREDICT_BATCH + 7, 16)
        assert np.array_equal(out[:PREDICT_BATCH], forward(params, x[:PREDICT_BATCH], c[:PREDICT_BATCH]).data)
        assert np.array_equal(out[PREDICT_BATCH:], forward(params, x[PREDICT_BATCH:], c[PREDICT_BATCH:]).data)

    def test_empty_batch_gives_empty_rows(self):
        params = ModelParams.init(TINY, seed=0)
        out = predict(params, np.zeros((0, 4, 5)), np.zeros((0, 4, 2)))
        assert out.shape == (0, 16)

    def test_empty_batch_of_the_wrong_shape_rejected(self):
        params = ModelParams.init(TINY, seed=0)  # history 4, input dim 5
        wrong = r"input shape \(0, 3, 7\) != \(batch, history_len, input_dim\) = \(batch, 4, 5\)"
        with pytest.raises(ValueError, match=wrong):
            forward(params, np.zeros((0, 3, 7)), np.zeros((0, 3, 2)))
        with pytest.raises(ValueError, match=wrong):
            predict(params, np.zeros((0, 3, 7)))

    def test_bad_shapes_rejected(self):
        params = ModelParams.init(TINY, seed=0)
        with pytest.raises(ValueError):
            predict(params, np.zeros((2, 3, 5)), np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            predict(params, np.zeros((2, 4, 5)), None)
        with pytest.raises(ValueError, match=r"context shape \(2, 3, 2\) != \(2, 4, 2\)"):
            predict(params, np.zeros((2, 4, 5)), np.zeros((2, 3, 2)))

    def test_nonfinite_input_rejected(self):
        params = ModelParams.init(TINY, seed=0)
        x, c, _ = tiny_batch(1)
        x[0, 0, 0] = np.inf
        with pytest.raises(NumericError):
            predict(params, x, c)


class TestLoss:
    def test_perfect_prediction(self):
        pred = Tensor(np.array([1.0 - 1e-7]))
        assert bce_loss(pred, np.array([1.0])).item() < 1e-6

    def test_ln2_case(self):
        pred = Tensor(np.array([0.5, 0.5]))
        assert abs(bce_loss(pred, np.array([1.0, 0.0])).item() - math.log(2)) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = Tensor(rng.uniform(0, 1, size=8))
            y = rng.integers(0, 2, size=8).astype(float)
            assert bce_loss(p, y).item() >= 0.0

    def test_monotone_in_error(self):
        # fixed label 1: loss strictly decreases as p rises through a grid
        losses = [bce_loss(Tensor(np.array([p])), np.array([1.0])).item()
                  for p in np.linspace(0.05, 0.95, 19)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_gradient_of_clamped_expression(self):
        p = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        y = np.array([1.0, 0.0])
        bce_loss(p, y).backward()
        # d/dp mean(-(y log p + (1-y) log(1-p))) = (-y/p + (1-y)/(1-p)) / B
        expect = np.array([-1.0 / 0.3, 1.0 / 0.3]) / 2
        assert np.allclose(p.grad, expect)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.zeros(4)), np.zeros(5))


class TestTrain:
    def make_dataset(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (n, TINY.history_len, TINY.input_dim))
        c = rng.uniform(0.01, 1, (n, TINY.history_len, 2))
        y = np.zeros((n, TINY.output_dim))
        y[:, 3] = 1.0  # constant learnable target
        return x, c, y

    def test_loss_decreases(self):
        x, c, y = self.make_dataset()
        cfg = TrainConfig(max_epochs=5, batch_size=64, seed=1, patience=None)
        _, log = train(TINY, x, c, y, cfg=cfg)
        assert log[-1].train_loss < log[0].train_loss

    def test_seed_reproducibility(self):
        x, c, y = self.make_dataset()
        cfg = TrainConfig(max_epochs=2, batch_size=64, seed=7)
        p1, log1 = train(TINY, x, c, y, cfg=cfg)
        p2, log2 = train(TINY, x, c, y, cfg=cfg)
        assert p1.encode() == p2.encode()
        assert log1 == log2

    def test_different_seed_differs(self):
        x, c, y = self.make_dataset()
        p1, _ = train(TINY, x, c, y, cfg=TrainConfig(max_epochs=1, seed=1))
        p2, _ = train(TINY, x, c, y, cfg=TrainConfig(max_epochs=1, seed=2))
        assert p1.encode() != p2.encode()

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train(TINY, np.empty((0, 4, 5)), None, np.empty((0, 16)))

    def test_divergence_reported_with_location(self):
        x, c, y = self.make_dataset(64)
        cfg = TrainConfig(learning_rate=1e150, max_epochs=3, batch_size=32, seed=0)
        with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
            with np.errstate(all="ignore"):
                train(TINY, x, c, y, cfg=cfg)
        y[5, 0] = np.nan  # a NaN label meets no check before the loss value
        with pytest.raises(TrainingError, match=r"^loss diverged at epoch 0, batch 0$"):
            train(TINY, x, c, y, cfg=TrainConfig(max_epochs=1, batch_size=64, seed=0))

    def test_lr_step_decay_schedule(self):
        x, c, y = self.make_dataset(64)
        cfg = TrainConfig(max_epochs=5, lr_decay_every=2,
                          learning_rate=1e-3, batch_size=64, seed=0, patience=None)
        _, log = train(TINY, x, c, y, cfg=cfg)
        assert [e.learning_rate for e in log] == [1e-3, 1e-3, 5e-4, 5e-4, 2.5e-4]

    def test_early_stopping_returns_best(self):
        # validated on the training inputs with complemented labels, the loss must rise as the
        # model learns, so training stops ``patience + 1`` epochs after its best one
        x, c, y = self.make_dataset(128)
        cfg = TrainConfig(max_epochs=30, batch_size=64, seed=0, patience=2)
        params, log = train(TINY, x, c, y, x, c, 1 - y, cfg=cfg)
        val_losses = [e.val_loss for e in log]
        best = val_losses.index(min(val_losses))
        assert len(log) == best + cfg.patience + 2 < cfg.max_epochs
        assert model_module._evaluate_loss(params, x, c, 1 - y, cfg.batch_size) == min(val_losses)

    def test_validation_loss_builds_no_graph(self, monkeypatch):
        x, c, y = self.make_dataset(64)
        xv, cv, yv = self.make_dataset(32, seed=9)
        forward, evaluate_loss = model_module.forward, model_module._evaluate_loss
        inside, requires_grad = [], []

        def recording_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            if inside:
                requires_grad.append(out.requires_grad)
            return out

        def flagged_evaluate_loss(*args, **kwargs):
            inside.append(True)
            try:
                return evaluate_loss(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(model_module, "forward", recording_forward)
        monkeypatch.setattr(model_module, "_evaluate_loss", flagged_evaluate_loss)
        cfg = TrainConfig(max_epochs=2, batch_size=16, seed=0, patience=None)
        train(TINY, x, c, y, xv, cv, yv, cfg=cfg)
        assert requires_grad == [False] * 4  # two validation batches per epoch

    def test_position_sensitivity_after_training(self):
        x, c, y = self.make_dataset(256, seed=3)
        y = (np.random.default_rng(3).uniform(size=y.shape) < 0.3).astype(float)
        cfg = TrainConfig(max_epochs=3, batch_size=64, seed=4, patience=None)
        params, _ = train(TINY, x, c, y, cfg=cfg)
        assert np.abs(params["pos_embed"].data).max() > 0.0
        sample = x[:1]
        base = predict(params, sample, c[:1])
        changed = any(
            np.abs(predict(params, sample[:, perm, :], c[:1]) - base).max() > 1e-9
            for perm in itertools.permutations(range(4)) if perm != (0, 1, 2, 3)
        )
        assert changed


class TestGradientCheck:
    def test_linear_only_model(self):
        cfg = ModelConfig(hidden_dim=8, num_heads=2, num_layers=0, output_dim=12,
                          history_len=3, input_dim=4)
        params = ModelParams.init(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (2, 3, 4))
        c = rng.uniform(0.01, 1, (2, 3, 2))
        y = rng.integers(0, 2, (2, 12)).astype(float)
        report = gradient_check(params, x, c, y)
        assert report.max_relative_error < 1e-6

    def test_full_model(self):
        params = ModelParams.init(TINY, seed=1)
        x, c, y = tiny_batch(2, seed=1)
        report = gradient_check(params, x, c, y)
        assert report.max_relative_error < 1e-4
        assert set(report.per_tensor) == {n for n, _ in params.items()}

    def test_corrupted_gradient_detected(self, monkeypatch):
        from prefetchlab import autodiff as ad_mod
        from prefetchlab import model as model_mod

        true_relu = ad_mod.relu

        broken = []

        def broken_relu(a):
            out = true_relu(a)
            node = out._node
            if node is not None:
                inner = node._fn
                node._fn = lambda g: inner(g * 1.5)  # wrong by 50%
                broken.append(node)
            return out

        monkeypatch.setattr(model_mod.ad, "relu", broken_relu)
        params = ModelParams.init(TINY, seed=2)
        x, c, y = tiny_batch(2, seed=2)
        report = gradient_check(params, x, c, y)
        assert broken, "no relu node was built"
        assert report.max_relative_error > 1e-4


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = ModelParams.init(TINY, seed=5)
        path = tmp_path / "m.ckpt"
        params.save(path)
        loaded = ModelParams.load(path)
        assert loaded.cfg == TINY
        for (n1, t1), (n2, t2) in zip(params.items(), loaded.items()):
            assert n1 == n2
            assert np.array_equal(t1.data.astype(np.float32), t2.data.astype(np.float32))
        assert loaded.encode() == params.encode()

    def test_corruption_detected(self, tmp_path):
        params = ModelParams.init(TINY, seed=5)
        path = tmp_path / "m.ckpt"
        params.save(path)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            ModelParams.load(path)

    def test_loaded_params_are_frozen(self, tmp_path):
        params = ModelParams.init(TINY, seed=5)
        path = tmp_path / "m.ckpt"
        params.save(path)
        loaded = ModelParams.load(path)
        assert all(not t.requires_grad for _, t in loaded.items())


def craft(fields, body=b"", magic=CHECKPOINT_MAGIC):
    """Checkpoint bytes with the given header fields and a digest that matches."""
    payload = magic + struct.pack(f"<{len(fields)}I", *fields) + body
    return payload + hashlib.sha256(payload).digest()


TINY_HEADER = (1, 8, 2, 2, 16, 4, 5, 2, 1)  # version, then TINY's fields in header order


def tiny_body():
    return b"\0" * (4 * _param_count(TINY))


def with_field(i, value):
    return tuple(value if j == i else v for j, v in enumerate(TINY_HEADER))


class TestCheckpointHeader:
    @pytest.mark.parametrize("cfg", [
        TINY, ModelConfig(), dataclasses.replace(TINY, num_layers=0, use_context=False),
        dataclasses.replace(TINY, ffn_mult=3, history_len=1, output_dim=3),
    ], ids=["tiny", "default", "no-layers", "wide-ffn"])
    def test_param_count_matches_spec(self, cfg):
        assert _param_count(cfg) == sum(math.prod(shape) for _, shape, _ in _param_spec(cfg))

    def test_tiny_header_is_tiny(self):
        params = ModelParams.init(TINY, seed=1)
        assert params.encode()[:8 + 4 * len(TINY_HEADER)] == craft(TINY_HEADER)[:-32]
        assert ModelParams.decode(craft(TINY_HEADER, tiny_body())).cfg == TINY

    @pytest.mark.parametrize("raw", [
        craft(with_field(3, 2**31), tiny_body()),
        craft(with_field(1, 2**31), tiny_body()),
        craft(with_field(3, 3), tiny_body()),
        craft(with_field(7, 3), tiny_body()),
        craft(with_field(1, 0), tiny_body()),
        craft(with_field(2, 3), tiny_body()),
        craft(with_field(8, 3), tiny_body()),
        craft(with_field(8, 2**31), tiny_body()),
        craft(with_field(0, 2), tiny_body()),
        craft(TINY_HEADER, tiny_body()[:-4]),
        craft(TINY_HEADER, tiny_body() + b"\0" * 4),
        craft(TINY_HEADER[:1]),
        craft(TINY_HEADER, tiny_body(), magic=b"PFLCKPT0"),
        b"",
    ], ids=["layers-2**31", "hidden-2**31", "layers-3", "ffn-mult-3", "hidden-0",
            "heads-3", "context-3", "context-2**31", "version-2", "body-short",
            "body-long", "header-cut", "magic", "empty"])
    def test_crafted_header_rejected(self, raw):
        with address_space_cap(), pytest.raises(ValueError) as exc:
            ModelParams.decode(raw, source="crafted.ckpt")
        assert str(exc.value).startswith("crafted.ckpt: ")


def byte_classes(raw):
    """(name, start, end) of each byte class of a checkpoint file."""
    classes = [("magic", 0, 8)]
    classes += [(f"header{i}", 8 + 4 * i, 12 + 4 * i) for i in range(len(TINY_HEADER))]
    head = 8 + 4 * len(TINY_HEADER)
    return classes + [("body", head, len(raw) - 32), ("digest", len(raw) - 32, len(raw))]


class TestCheckpointFuzz:
    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ModelParams.init(TINY, seed=5).save(path)
        return path

    def test_bit_flip_in_each_byte_class(self, ckpt):
        raw = ckpt.read_bytes()
        for i, (name, lo, hi) in enumerate(byte_classes(raw)):
            bad = bytearray(raw)
            bad[(lo + hi) // 2] ^= 1 << (i % 8)
            ckpt.write_bytes(bytes(bad))
            with pytest.raises(ValueError, match="m.ckpt") as exc:
                ModelParams.load(ckpt)
            assert str(exc.value).startswith(str(ckpt)), name

    def test_truncated_at_each_class_boundary(self, ckpt):
        raw = ckpt.read_bytes()
        for name, lo, _ in byte_classes(raw) + [("end", len(raw) - 1, None)]:
            ckpt.write_bytes(raw[:lo])
            with pytest.raises(ValueError) as exc:
                ModelParams.load(ckpt)
            assert str(exc.value).startswith(str(ckpt)), name


MiB = 1 << 20
DEFAULT_DIMS = ModelConfig(hidden_dim=128, num_heads=4, num_layers=2)


@contextmanager
def traced_memory():
    """Yield a function giving (current, peak) tracemalloc bytes above the level
    at entry; tracing stops when the block ends."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield lambda: tuple(b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


class TestFreedGraph:
    """The graph keeps only what backward reads, and backward() frees it; the
    gradients are those of the retaining loop."""

    SIZES = [(TINY, 3), (DEFAULT_DIMS, 112)]

    @staticmethod
    def step(cfg, n, backward):
        """One training step's graph: returns the trainable params, the loss and
        the tracemalloc rise during ``backward(loss)`` over the memory before it."""
        x, c, y = tiny_batch(n, cfg=cfg, seed=3)
        params = ModelParams.init(cfg, seed=4)
        with traced_memory() as memory:
            loss = bce_loss(forward(params, x, c), y)
            tracemalloc.reset_peak()
            before = memory()[0]
            backward(loss)
            rise = memory()[1] - before
        return params, loss, rise

    @pytest.mark.parametrize("cfg, n", SIZES, ids=["tiny", "default-dims"])
    def test_same_grads_less_memory(self, cfg, n):
        ref_params, _, ref_rise = self.step(cfg, n, retaining_backward)
        params, loss, rise = self.step(cfg, n, lambda t: t.backward())
        for (name, t), (_, ref) in zip(params.items(), ref_params.items()):
            assert np.array_equal(t.grad, ref.grad), name
        assert reachable(loss) == [loss._node] and loss._node.grad is None
        assert rise <= ref_rise / 4, (rise, ref_rise)

    def test_forward_keeps_only_what_backward_reads(self):
        """At the paper's dims and batch 112 the graph holds the arrays its closures
        read (about 18 MiB), not every op output (about 32 MiB when each output was
        also its graph node)."""
        x, c, y = tiny_batch(112, cfg=DEFAULT_DIMS, seed=3)
        params = ModelParams.init(DEFAULT_DIMS, seed=4)
        with traced_memory() as memory:
            loss = bce_loss(forward(params, x, c), y)
            live = memory()[0]
        assert live <= 21 * MiB, live / MiB
        loss.backward()

    def test_training_peak(self):
        """Two epochs of one batch of 112 at the paper's dims: about 30 MiB traced,
        against about 45 MiB when every op output stayed in the graph."""
        x, c, y = tiny_batch(112, cfg=DEFAULT_DIMS, seed=3)
        with traced_memory() as memory:
            train(DEFAULT_DIMS, x, c, y, cfg=TrainConfig(max_epochs=2))
            peak = memory()[1]
        assert peak < 35 * MiB, peak / MiB

    def test_step_needs_no_cycle_collector(self):
        """No tensor, node or closure of a training step is part of a reference
        cycle: with the cyclic collector off, every step's memory is freed by
        reference counting, so the traced memory after a step stays at its level
        after the first one."""
        x, c, y = tiny_batch(16, cfg=DEFAULT_DIMS, seed=3)
        params = ModelParams.init(DEFAULT_DIMS, seed=4)
        opt = AdamOptimizer(params)

        def train_step():
            for _, t in params.items():
                t.grad = None
            bce_loss(forward(params, x, c), y).backward()
            opt.step(params, 1e-3)

        gc.collect()
        gc.disable()
        try:
            with traced_memory() as memory:
                train_step()  # allocates the gradients that every later step replaces
                settled = memory()[0]
                for _ in range(3):
                    train_step()
                growth = memory()[0] - settled
        finally:
            gc.enable()
        assert growth < 256 * 1024, growth


class TestLatencyEstimate:
    def test_no_layers(self):
        cfg = ModelConfig(hidden_dim=8, num_heads=2, num_layers=0, output_dim=4,
                          history_len=2, input_dim=2)
        costs = LatencyCosts(3, 4, 5, 6, vector_add=1, activation=2, norm=9)
        assert estimate_latency(costs, cfg) == 3 + 1 + 4 + 2

    def test_all_zero_costs(self):
        costs = LatencyCosts(0, 0, 0, 0, vector_add=0, activation=0, norm=0)
        assert estimate_latency(costs, TINY) == 0.0

    def test_log_tree_estimate_near_100_cycles(self):
        cfg = ModelConfig(hidden_dim=64, num_heads=4, num_layers=2, output_dim=256,
                          history_len=9, input_dim=10)
        got = estimate_latency(LatencyCosts.log_tree(64), cfg)
        assert abs(got - 100.0) <= 20.0

    def test_linear_in_layers(self):
        costs = LatencyCosts.log_tree(32)
        per_layer = 4 * costs.matmul_attn + 3 * costs.activation + costs.matmul_ffn \
            + 2 * (costs.vector_add + costs.norm)
        vals = []
        for layers in (1, 2, 3):
            cfg = ModelConfig(hidden_dim=32, num_heads=2, num_layers=layers,
                              output_dim=8, history_len=2, input_dim=2)
            vals.append(estimate_latency(costs, cfg))
        assert vals[1] - vals[0] == pytest.approx(per_layer)
        assert vals[2] - vals[1] == pytest.approx(per_layer)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            estimate_latency(LatencyCosts(-1, 0, 0, 0), TINY)
