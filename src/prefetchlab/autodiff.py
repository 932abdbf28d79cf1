"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery for the attention predictor: broadcasting elementwise ops,
batched matmul, softmax, layer norm, shape ops, and reductions, plus two fused
nodes for the model's hot path: ``linear`` (x W + b) and ``multi_head_attention``
(projections, scaled dot-product attention and the head merge in one node).
Gradients are exact for every op (the whole point: they are validated against
central finite differences by the model's gradient check).

``Tensor.backward`` frees the graph as it goes, as PyTorch does by default: once
a node has passed its gradient to its parents, it drops that gradient, its
backward closure (and with it the activations the closure saved) and its
parent links. Afterwards only leaves (parameters and any ``requires_grad``
input) keep a ``.grad``; the root's and every intermediate's ``.grad`` are
``None``. A graph is backpropagated once: a second ``backward()`` through it,
or through a new graph built on one of its nodes, raises ``RuntimeError``.
"""

from __future__ import annotations

import math

import numpy as np


class NumericError(Exception):
    """A non-finite value appeared during a forward pass."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over broadcast dimensions so it matches ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None):
        """Accumulate gradients into every reachable leaf with requires_grad.

        Walks the graph once in reverse topological order and frees it on the
        way: each non-leaf node drops its ``grad``, backward closure and
        parents as soon as its gradient has reached its parents, so each
        activation and intermediate gradient is released once nothing upstream
        needs it. Afterwards the root's and the intermediates' ``.grad`` are
        ``None``; leaves keep theirs. Raises RuntimeError when the graph, or part
        of it, was freed by an earlier ``backward()``.
        """
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _freed:
                _freed()  # refuse before any gradient moves
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        while topo:
            node = topo.pop()  # pop, not reversed(): the walk list must not keep the node
            bw = node._backward
            if bw is None:
                continue
            g, node.grad = node.grad, None
            node._backward, node._parents = _freed, ()
            if g is not None:
                bw(g)

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __rsub__(self, other):
        return add(_wrap(other), scale(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def _freed(g=None):
    """The backward of a node that an earlier ``Tensor.backward`` freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() already freed; "
                       "build the graph again")


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    for p in parents:  # a plain loop: any() over a generator costs more per node
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            break
    return out


def _accum(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bw)


def scale(a, k: float) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, g * k)

    return _node(a.data * k, (a,), bw)


def matmul(a, b) -> Tensor:
    """Matrix product; either side may carry leading batch dimensions."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out_data = a.data @ b.data

    def bw(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), bw)


def linear(x, w, b=None) -> Tensor:
    """x W (+ b) over the flattened leading dims of x, as one node.

    The weight gradient is one 2-D product over every leading row, and the bias
    gradient a column sum, instead of one product per batch element.
    """
    x, w = _wrap(x), _wrap(w)
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = x2 @ w.data
    parents = (x, w)
    if b is not None:
        b = _wrap(b)
        out += b.data
        parents = (x, w, b)

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accum(x, (g2 @ w.data.T).reshape(x.data.shape))
        _accum(w, x2.T @ g2)
        if b is not None:
            _accum(b, g2.sum(axis=0))

    return _node(out.reshape(x.data.shape[:-1] + out.shape[-1:]), parents, bw)


def multi_head_attention(xq, x, wq, wk, wv, num_heads: int) -> Tensor:
    """Multi-head attention as one node, before the output projection.

    Queries come from ``xq`` (..., m, D); keys and values from ``x`` (..., n, D).
    Each of the H heads attends with softmax(q k^T / sqrt(D/H)) v on its D/H
    slice of the projections; the heads are merged back to (..., m, D). When
    ``xq is x`` the three projections are one product with [wq | wk | wv].
    Raises NumericError when a projection is not finite.
    """
    xq, x, wq, wk, wv = (_wrap(t) for t in (xq, x, wq, wk, wv))
    *lead, n, dim = x.data.shape
    m = xq.data.shape[-2]
    dh = dim // num_heads
    x2 = x.data.reshape(-1, dim)
    fused = xq is x

    def heads(t, rows):  # (B * rows, k * D) -> (B, k * H, rows, dh)
        return t.reshape(-1, rows, t.shape[-1] // dh, dh).transpose(0, 2, 1, 3)

    w_from_x = (wq, wk, wv) if fused else (wk, wv)
    w_in = np.concatenate([w.data for w in w_from_x], axis=1)
    proj = [x2 @ w_in]
    if not fused:
        xq2 = xq.data.reshape(-1, dim)
        proj.insert(0, xq2 @ wq.data)
    if not all(np.isfinite(t).all() for t in proj):
        raise NumericError("non-finite attention input")
    kv = heads(proj[-1], n)
    q = kv[:, :num_heads] if fused else heads(proj[0], m)
    k, v = kv[:, -2 * num_heads:-num_heads], kv[:, -num_heads:]
    k_t = k.transpose(0, 1, 3, 2)
    factor = 1.0 / math.sqrt(dh)
    scores = (q @ k_t) * factor
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)  # (B, H, m, n)

    def merge(t):  # (B, H, rows, dh) -> (B * rows, D)
        return t.transpose(0, 2, 1, 3).reshape(-1, dim)

    out = merge(a @ v).reshape(tuple(lead) + (m, dim))

    def bw(g):
        g_h = g.reshape(-1, m, num_heads, dh).transpose(0, 2, 1, 3)
        d_a = g_h @ v.transpose(0, 1, 3, 2)
        d_scores = a * (d_a - (d_a * a).sum(axis=-1, keepdims=True)) * factor
        d_q = merge(d_scores @ k)
        d_k = merge(d_scores.transpose(0, 1, 3, 2) @ q)
        d_v = merge(a.transpose(0, 1, 3, 2) @ g_h)
        d_proj = np.concatenate([d_q, d_k, d_v] if fused else [d_k, d_v], axis=1)
        for w, d_w in zip(w_from_x, np.split(x2.T @ d_proj, len(w_from_x), axis=1)):
            _accum(w, d_w)
        if x.requires_grad:
            _accum(x, (d_proj @ w_in.T).reshape(x.data.shape))
        if not fused:
            _accum(wq, xq2.T @ d_q)
            if xq.requires_grad:
                _accum(xq, (d_q @ wq.data.T).reshape(xq.data.shape))

    return _node(out, (x, wq, wk, wv) if fused else (xq, x, wq, wk, wv), bw)


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0

    def bw(g):
        _accum(a, g * mask)

    return _node(a.data * mask, (a,), bw)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    z = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0, z) / (1.0 + z)

    def bw(g):
        _accum(a, g * y * (1.0 - y))

    return _node(y, (a,), bw)


def log(a) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, g / a.data)

    return _node(np.log(a.data), (a,), bw)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; the gradient is exactly that of the clamped expression
    (1 inside the interval, 0 where the clamp is active)."""
    a = _wrap(a)
    mask = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        _accum(a, g * mask)

    return _node(np.clip(a.data, lo, hi), (a,), bw)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - inner))

    return _node(y, (a,), bw)


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize over the last axis (epsilon 1e-5), then scale and shift."""
    a, gain, bias = _wrap(a), _wrap(gain), _wrap(bias)
    x = a.data
    n = x.shape[-1]
    # sum / n is what np.mean computes, without its Python-level wrapper; the
    # variance from the centred x gives the bits of np.var
    centred = x - x.sum(axis=-1, keepdims=True) / n
    var = (centred * centred).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centred * inv_std
    out_data = xhat * gain.data + bias.data

    def bw(g):
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, _unbroadcast(g, bias.data.shape))
        dxhat = g * gain.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / n
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        _accum(a, inv_std * (dxhat - m1 - xhat * m2))

    return _node(out_data, (a, gain, bias), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def bw(g):
        bounds = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, bounds, axis=axis)):
            _accum(t, piece)

    return _node(out_data, tuple(tensors), bw)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    inverse = np.argsort(axes)

    def bw(g):
        _accum(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bw)


def broadcast_to(a, shape) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    out = np.empty(shape)
    out[...] = a.data  # the copy np.broadcast_to(...).copy() makes, without its Python wrapper
    return _node(out, (a,), bw)


def getitem(a, key) -> Tensor:
    """Basic slicing only (no integer-array indexing), so grads scatter exactly once."""
    a = _wrap(a)

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[key] += g
        _accum(a, ga)

    return _node(a.data[key], (a,), bw)


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    out_data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.data.shape[axis]

    def bw(g):
        if axis is None:
            _accum(a, np.full_like(a.data, float(g) / count))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis) / count, a.data.shape).copy())

    return _node(out_data, (a,), bw)


def sum_(a, axis=None) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _node(out_data, (a,), bw)
