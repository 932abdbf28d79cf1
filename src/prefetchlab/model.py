"""The attention-based multi-label predictor.

Architecture: each history position's feature row is embedded by one shared
linear map; a trainable classification token is prepended; learnable position
embeddings and (optionally) a per-position context embedding are added; the
sequence passes through stacked post-norm transformer layers (multi-head
self-attention + pointwise feed-forward, each with a residual add and a layer
norm); the classification token's final state feeds a single linear head whose
sigmoid outputs are per-delta prefetch confidences.

``forward`` builds few graph nodes: every projection (embeddings, attention
output, feed-forward, head) is one ``autodiff.linear`` node, and each layer's
attention is one fused ``autodiff.multi_head_attention`` node. The head reads
only the classification row, so the last layer takes its keys and values from
every position but computes its queries, output projection, residual norms and
feed-forward for that row alone. ``attention``, ``multi_head_attention`` and
``feed_forward`` below are the unfused compositions the tests check it against.

Training is full-precision ADAM with a step-decayed learning rate, binary
cross-entropy over the bitmap dimensions, deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from prefetchlab import autodiff as ad
from prefetchlab.autodiff import NumericError, Tensor
from prefetchlab.schema import config, field
from prefetchlab.seal import seal, unseal

BCE_EPS = 1e-7
PREDICT_BATCH = 512  # samples per forward pass in predict
CHECKPOINT_MAGIC = b"PFLCKPT1"
CHECKPOINT_VERSION = 1
# the header that follows the magic: the version, then these ModelConfig fields
_HEADER_FIELDS = ("hidden_dim", "num_heads", "num_layers", "output_dim", "history_len", "input_dim",
                  "ffn_mult", "use_context")
_HEADER = f"<{1 + len(_HEADER_FIELDS)}I"


class TrainingError(Exception):
    """Training diverged (non-finite loss)."""


@config
class ModelDims:
    hidden_dim: int = field(128, ge=1)
    num_heads: int = field(4, ge=1)
    num_layers: int = field(2, ge=0)
    ffn_mult: int = field(2, ge=1)
    use_context: bool = True
    history_len: int = field(9, ge=1)

    def __post_init__(self):
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )


@config
class ModelConfig(ModelDims):
    """The shape plus the dims the data fixes: the label bitmap and the input row."""

    output_dim: int = field(256, ge=1)
    input_dim: int = field(10, ge=1)

    @property
    def seq_len(self) -> int:
        return self.history_len + 1  # classification token + history

    @property
    def ffn_dim(self) -> int:
        return self.ffn_mult * self.hidden_dim


def _param_spec(cfg: ModelConfig):
    """Canonical (name, shape, kind) list; kind drives initialization."""
    d, s, b = cfg.hidden_dim, cfg.input_dim, cfg.output_dim
    spec = [
        ("embed_w", (s, d), "linear"),
        ("cls_token", (d,), "zero"),
        ("pos_embed", (cfg.seq_len, d), "zero"),
        ("ctx_embed_w", (2, d), "linear"),
    ]
    for i in range(cfg.num_layers):
        p = f"layer{i}."
        spec += [
            (p + "attn_wq", (d, d), "linear"),
            (p + "attn_wk", (d, d), "linear"),
            (p + "attn_wv", (d, d), "linear"),
            (p + "attn_wo", (d, d), "linear"),
            (p + "ffn_w1", (d, cfg.ffn_dim), "linear"),
            (p + "ffn_b1", (cfg.ffn_dim,), "zero"),
            (p + "ffn_w2", (cfg.ffn_dim, d), "linear"),
            (p + "ffn_b2", (d,), "zero"),
            (p + "ln1_gain", (d,), "one"),
            (p + "ln1_bias", (d,), "zero"),
            (p + "ln2_gain", (d,), "one"),
            (p + "ln2_bias", (d,), "zero"),
        ]
    spec += [("head_w", (d, b), "linear"), ("head_b", (b,), "zero")]
    return spec


def _param_count(cfg: ModelConfig) -> int:
    """Total entries of :func:`_param_spec`, in closed form (no spec is built)."""
    d, f = cfg.hidden_dim, cfg.ffn_dim
    per_layer = 4 * d * d + 2 * d * f + f + 5 * d
    return (d * (cfg.input_dim + 3 + cfg.seq_len + cfg.output_dim) + cfg.output_dim
            + cfg.num_layers * per_layer)


class ModelParams:
    """All learnable tensors, in canonical order."""

    def __init__(self, cfg: ModelConfig, tensors: dict[str, Tensor]):
        self.cfg = cfg
        self._tensors = tensors

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int) -> "ModelParams":
        """Uniform +-sqrt(1/fan_in) for linear maps; zeros for biases, the
        classification token and position embeddings; unit layer-norm gains."""
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape, kind in _param_spec(cfg):
            if kind == "linear":
                bound = math.sqrt(1.0 / shape[0])
                data = rng.uniform(-bound, bound, size=shape)
            elif kind == "one":
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(cfg, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self):
        for name, _, _ in _param_spec(self.cfg):
            yield name, self._tensors[name]

    def set_trainable(self, trainable: bool):
        for _, t in self.items():
            t.requires_grad = trainable
            t.grad = None

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.cfg,
            {n: Tensor(t.data.copy(), requires_grad=t.requires_grad) for n, t in self.items()},
        )

    def encode(self) -> bytes:
        """Checkpoint bytes, sealed (:mod:`prefetchlab.seal`): the header is the version, then
        ``_HEADER_FIELDS`` as u32; the body is every tensor as float32, in canonical order."""
        fields = (CHECKPOINT_VERSION, *(int(getattr(self.cfg, name)) for name in _HEADER_FIELDS))
        return seal(CHECKPOINT_MAGIC, _HEADER, fields,
                    b"".join(t.data.astype("<f4").tobytes() for _, t in self.items()))

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.encode())

    @classmethod
    def load(cls, path) -> "ModelParams":
        with open(path, "rb") as fh:
            return cls.decode(fh.read(), source=path)

    @classmethod
    def decode(cls, raw: bytes, source="checkpoint") -> "ModelParams":
        """Inverse of :meth:`encode`; every error is a ``ValueError`` that starts
        with ``source``. After the seal's checks, the header fields are checked, and the
        body length they imply is compared with the body's, before any tensor is sized."""
        fields, body = unseal(raw, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _HEADER, source, "checkpoint")
        dims = dict(zip(_HEADER_FIELDS, fields))
        if dims["use_context"] not in (0, 1):
            raise ValueError(f"{source}: use_context must be 0 or 1, got {dims['use_context']}")
        try:
            cfg = ModelConfig(**(dims | {"use_context": bool(dims["use_context"])}))
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
        expected = 4 * _param_count(cfg)
        if len(body) != expected:
            raise ValueError(f"{source}: checkpoint body is {len(body)} bytes, "
                             f"its header implies {expected}")
        flat, tensors = np.frombuffer(body, dtype="<f4"), {}
        for name, shape, _ in _param_spec(cfg):
            count = int(np.prod(shape))
            tensors[name] = Tensor(flat[:count].astype(np.float64).reshape(shape))
            flat = flat[count:]
        return cls(cfg, tensors)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention: softmax(q k^T / sqrt(d_k)) v, row-wise."""
    for t in (q, k, v):
        if not np.isfinite(t.data).all():
            raise NumericError("non-finite attention input")
    dk = q.shape[-1]
    k_t = ad.transpose(k, (*range(k.data.ndim - 2), k.data.ndim - 1, k.data.ndim - 2))
    scores = ad.scale(ad.matmul(q, k_t), 1.0 / math.sqrt(dk))
    return ad.matmul(ad.softmax(scores, axis=-1), v)


def multi_head_attention(x: Tensor, wq, wk, wv, wo, num_heads: int) -> Tensor:
    """H parallel attentions on hidden_dim/H projections, concatenated, projected."""
    *batch, seq, dim = x.shape
    dh = dim // num_heads
    perm = tuple(range(len(batch))) + (len(batch) + 1, len(batch), len(batch) + 2)  # its own inverse

    def heads(m):
        return ad.transpose(ad.reshape(ad.matmul(x, m), tuple(batch) + (seq, num_heads, dh)), perm)

    out = attention(heads(wq), heads(wk), heads(wv))
    merged = ad.reshape(ad.transpose(out, perm), tuple(batch) + (seq, dim))
    return ad.matmul(merged, wo)


def feed_forward(x: Tensor, w1, b1, w2, b2) -> Tensor:
    """Pointwise max(0, x w1 + b1) w2 + b2."""
    return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


def _check_batch(cfg: ModelConfig, inputs: np.ndarray):
    if inputs.ndim != 3 or inputs.shape[1:] != (cfg.history_len, cfg.input_dim):
        raise ValueError(f"input shape {inputs.shape} != (batch, history_len, input_dim) = "
                         f"(batch, {cfg.history_len}, {cfg.input_dim})")


def forward(
    params: ModelParams,
    inputs: np.ndarray,
    contexts: np.ndarray | None = None,
) -> Tensor:
    """Batched forward pass -> (batch, output_dim) confidences in [0, 1].

    ``inputs`` is (batch, history_len, input_dim); one sample is a batch of one.
    ``contexts`` is (batch, history_len, 2) and is ignored when the model was
    configured without context enhancement. The classification token receives no
    context; every other token n gets its context pair embedded and added.
    """
    cfg = params.cfg
    inputs = np.asarray(inputs, dtype=np.float64)
    _check_batch(cfg, inputs)
    batch = inputs.shape[0]
    if not np.isfinite(inputs).all():
        raise NumericError("non-finite model input")

    embedded = ad.linear(Tensor(inputs), params["embed_w"])  # (batch, N, D)
    cls = ad.broadcast_to(
        ad.reshape(params["cls_token"], (1, 1, cfg.hidden_dim)), (batch, 1, cfg.hidden_dim)
    )
    x = ad.add(ad.concat([cls, embedded], axis=1), params["pos_embed"])

    if cfg.use_context:
        if contexts is None:
            raise ValueError("model configured with context enhancement but no contexts given")
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.shape != (batch, cfg.history_len, 2):
            raise ValueError(f"context shape {contexts.shape} != {(batch, cfg.history_len, 2)}")
        ctx = ad.linear(Tensor(contexts), params["ctx_embed_w"])  # (batch, N, D)
        pad = Tensor(np.zeros((batch, 1, cfg.hidden_dim)))
        x = ad.add(x, ad.concat([pad, ctx], axis=1))

    for i in range(cfg.num_layers):
        p = f"layer{i}."
        # the head reads only the classification row, and every op after the
        # attention's keys and values works row by row: the last layer keeps row 0
        xq = x[:, :1] if i == cfg.num_layers - 1 else x
        attn = ad.multi_head_attention(
            xq, x, params[p + "attn_wq"], params[p + "attn_wk"], params[p + "attn_wv"],
            cfg.num_heads,
        )
        x = ad.layer_norm(ad.add(xq, ad.linear(attn, params[p + "attn_wo"])),
                          params[p + "ln1_gain"], params[p + "ln1_bias"])
        hidden = ad.relu(ad.linear(x, params[p + "ffn_w1"], params[p + "ffn_b1"]))
        ffn = ad.linear(hidden, params[p + "ffn_w2"], params[p + "ffn_b2"])
        x = ad.layer_norm(ad.add(x, ffn), params[p + "ln2_gain"], params[p + "ln2_bias"])
        if not np.isfinite(x.data).all():
            raise NumericError(f"non-finite activations after transformer layer {i}")

    return ad.sigmoid(ad.linear(x[:, 0, :], params["head_w"], params["head_b"]))


def predict(params: ModelParams, inputs, contexts=None) -> np.ndarray:
    """Confidences (batch, output_dim) as a plain array (no graph kept). The batch runs
    through ``forward`` PREDICT_BATCH samples at a time; one sample is a batch of one.
    The batch's shape is checked first, so an empty batch is checked too."""
    _check_batch(params.cfg, np.asarray(inputs))
    out = np.empty((len(inputs), params.cfg.output_dim))
    for lo in range(0, len(inputs), PREDICT_BATCH):
        hi = lo + PREDICT_BATCH
        out[lo:hi] = forward(params, inputs[lo:hi], None if contexts is None else contexts[lo:hi]).data
    return out


def bce_loss(pred: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross-entropy, averaged over bitmap dimensions (and batch rows).

    Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS]; the gradient is exact
    for the clamped expression.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != pred.shape:
        raise ValueError(f"label shape {y.shape} != prediction shape {pred.shape}")
    p = ad.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    per_dim = ad.add(ad.mul(y, ad.log(p)), ad.mul(1.0 - y, ad.log(1.0 - p)))
    return ad.scale(ad.mean(per_dim), -1.0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # ADAM's moment decay rates and denominator floor
LR_DECAY = 0.5  # the learning rate's factor at each decay step


@config
class TrainConfig:
    learning_rate: float = field(1e-3, gt=0)
    lr_decay_every: int = field(10, ge=1)  # epochs per decay step
    batch_size: int = field(256, ge=1)
    max_epochs: int = field(50, ge=1)
    seed: int = field(0, ge=0)
    patience: int | None = field(5, ge=0)  # early stop on validation loss; None disables


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    learning_rate: float


class AdamOptimizer:
    def __init__(self, params: ModelParams):
        self.step_count = 0
        self._m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self._v = {n: np.zeros_like(t.data) for n, t in params.items()}

    def step(self, params: ModelParams, lr: float):
        self.step_count += 1
        b1t = 1.0 - BETA1 ** self.step_count
        b2t = 1.0 - BETA2 ** self.step_count
        for n, t in params.items():
            g = t.grad
            if g is None:
                continue
            m, v = self._m[n], self._v[n]
            m += (1.0 - BETA1) * (g - m)
            v += (1.0 - BETA2) * (g * g - v)
            t.data -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def _evaluate_loss(params: ModelParams, inputs, contexts, labels, batch_size: int) -> float:
    frozen = ModelParams(params.cfg, {n: Tensor(t.data) for n, t in params.items()})  # builds no graph
    total = 0.0
    for lo in range(0, inputs.shape[0], batch_size):
        hi = min(lo + batch_size, inputs.shape[0])
        ctx = None if contexts is None else contexts[lo:hi]
        pred = forward(frozen, inputs[lo:hi], ctx)
        total += float(bce_loss(pred, labels[lo:hi]).item()) * (hi - lo)
    return total / max(inputs.shape[0], 1)


def train(
    model_cfg: ModelConfig,
    train_inputs: np.ndarray,
    train_contexts: np.ndarray | None,
    train_labels: np.ndarray,
    val_inputs: np.ndarray | None = None,
    val_contexts: np.ndarray | None = None,
    val_labels: np.ndarray | None = None,
    cfg: TrainConfig = TrainConfig(),
) -> tuple[ModelParams, list[EpochLog]]:
    """ADAM training with step-decayed learning rate; deterministic given the seed.

    Returns the parameters of the epoch with the lowest validation loss, plus the
    per-epoch loss log. With no validation set, each epoch's mean training loss (the
    mean of the losses taken before its steps) stands in for the validation loss, in
    that choice and in ``patience``, so the result is not the final parameters.
    """
    n = train_inputs.shape[0]
    if n == 0:
        raise TrainingError("empty training set")
    params = ModelParams.init(model_cfg, seed=cfg.seed)
    opt = AdamOptimizer(params)
    rng = np.random.default_rng(cfg.seed)
    has_val = val_inputs is not None and val_inputs.shape[0] > 0
    log: list[EpochLog] = []
    best_val = math.inf
    best_params = params.copy()
    since_best = 0

    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * LR_DECAY ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(n)
        epoch_loss, seen = 0.0, 0
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo: lo + cfg.batch_size]
            ctx = None if train_contexts is None else train_contexts[idx]
            for _, t in params.items():
                t.grad = None
            try:
                pred = forward(params, train_inputs[idx], ctx)
                loss = bce_loss(pred, train_labels[idx])
            except NumericError as exc:
                raise TrainingError(
                    f"training diverged at epoch {epoch}, batch {bi}: {exc}"
                ) from exc
            value = float(loss.item())
            if not math.isfinite(value):
                raise TrainingError(f"loss diverged at epoch {epoch}, batch {bi}")
            loss.backward()
            opt.step(params, lr)
            epoch_loss += value * len(idx)
            seen += len(idx)
        train_loss = epoch_loss / seen
        if has_val:
            val_loss = _evaluate_loss(params, val_inputs, val_contexts, val_labels, cfg.batch_size)
        else:
            val_loss = train_loss
        log.append(EpochLog(epoch, train_loss, val_loss, lr))
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1
            if cfg.patience is not None and since_best > cfg.patience:
                break
    best_params.set_trainable(False)
    return best_params, log


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    per_tensor: dict[str, float]
    max_relative_error: float

    def worst(self) -> tuple[str, float]:
        name = max(self.per_tensor, key=self.per_tensor.get)
        return name, self.per_tensor[name]


def gradient_check(
    params: ModelParams,
    inputs: np.ndarray,
    contexts: np.ndarray | None,
    labels: np.ndarray,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients of every parameter tensor with central finite
    differences of the loss, elementwise, in float64.

    The per-entry error is |analytic - numeric| / max(1, |analytic|, |numeric|),
    i.e. absolute error for small entries and relative error for large ones.
    Intended for small models only; cost is two forward passes per parameter.
    """
    params.set_trainable(True)  # also clears every gradient
    loss = bce_loss(forward(params, inputs, contexts), labels)
    loss.backward()
    analytic = {n: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for n, t in params.items()}

    def loss_value() -> float:
        return float(bce_loss(forward(params, inputs, contexts), labels).item())

    report = {}
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss_value()
            flat[i] = keep - step
            down = loss_value()
            flat[i] = keep
            num[i] = (up - down) / (2.0 * step)
        a = analytic[name].reshape(-1)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(num)))
        err = float(np.max(np.abs(a - num) / denom)) if flat.size else 0.0
        report[name] = err
        worst = max(worst, err)
    return GradCheckReport(report, worst)


# ---------------------------------------------------------------------------
# Inference latency estimate
# ---------------------------------------------------------------------------


@config
class LatencyCosts:
    """Per-primitive cycle costs for the fully-parallel latency estimate."""

    matmul_embed: float = field(ge=0)
    matmul_head: float = field(ge=0)
    matmul_attn: float = field(ge=0)
    matmul_ffn: float = field(ge=0)
    vector_add: float = field(1.0, ge=0)
    activation: float = field(1.0, ge=0)
    norm: float = field(5.0, ge=0)

    @classmethod
    def log_tree(cls, hidden_dim: int) -> "LatencyCosts":
        """Log-depth tree reduction cost model: every matrix multiply costs
        1 + log2(hidden_dim) cycles; adds and activations cost 1 cycle."""
        mm = 1.0 + math.log2(hidden_dim)
        return cls(matmul_embed=mm, matmul_head=mm, matmul_attn=mm, matmul_ffn=mm)


def estimate_latency(costs: LatencyCosts, cfg: ModelConfig) -> float:
    """Cycle estimate for one fully-parallel inference.

    Embeddings cost one matmul plus one add; the output head one matmul plus one
    activation; each transformer layer four attention matmuls, three activations,
    one feed-forward matmul, and two (add + norm) pairs for its residual norms.
    """
    per_layer = (
        4.0 * costs.matmul_attn
        + 3.0 * costs.activation
        + costs.matmul_ffn
        + 2.0 * (costs.vector_add + costs.norm)
    )
    return (
        costs.matmul_embed + costs.vector_add
        + costs.matmul_head + costs.activation
        + cfg.num_layers * per_layer
    )
