"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery for the attention predictor: broadcasting elementwise ops,
batched matmul, softmax, layer norm, shape ops, and reductions, plus two fused
nodes for the model's hot path: ``linear`` (x W + b) and ``multi_head_attention``
(projections, scaled dot-product attention and the head merge in one node).
Gradients are exact for every op (the whole point: they are validated against
central finite differences by the model's gradient check).

An op's output value and its place in the graph are separate objects, as with
PyTorch's ``grad_fn``. A ``Tensor`` holds the value. An op output that needs a
gradient also gets a small ``_Node``: its gradient, its parents' nodes and its
backward closure. A leaf (a parameter, or any input built with
``requires_grad``) is its own node and keeps its ``.grad``. Each closure keeps
only the arrays and shapes its backward reads and its parents' nodes, never a
parent ``Tensor``, so an op output that no backward reads (an ``add``,
``concat``, ``reshape`` or ``broadcast_to`` result, say) is freed as soon as
the forward pass drops it. An op whose inputs need no gradient builds no node
and no closure at all, which is every op of inference.

``Tensor.backward`` frees the graph as it goes, as PyTorch does by default: once
a node has passed its gradient to its parents, it drops that gradient, its
backward closure (and with it the arrays the closure saved) and its parent
links. Afterwards only leaves keep a ``.grad``. A graph is backpropagated
once: a second ``backward()`` through it, or through a new graph built on one
of its outputs, raises ``RuntimeError``.
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
    """A float64 ndarray, plus the graph node of the op that made it when that
    op's output needs a gradient. A leaf is its own graph node: it has no
    parents and no backward, and its gradient accumulates in ``.grad``."""

    __slots__ = ("data", "grad", "requires_grad", "_node")
    # a leaf's side of the node protocol, as class attributes: a leaf that
    # pointed ``_node`` at itself would be a reference cycle, freed only by gc
    _parents = ()
    _fn = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None):
        """Accumulate gradients into every reachable leaf with requires_grad.

        Walks the graph's nodes once in reverse topological order and frees
        them on the way: each op node drops its ``grad``, backward closure and
        parents as soon as its gradient has reached its parents, so each saved
        array and intermediate gradient is released once nothing upstream needs
        it. Leaves keep their ``.grad``. Raises RuntimeError when the graph, or
        part of it, was freed by an earlier ``backward()``.
        """
        root = self if self._node is None else self._node
        topo, visited = [], set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._fn is _freed:
                _freed()  # refuse before any gradient moves
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        while topo:
            node = topo.pop()  # pop, not reversed(): the walk list must not keep the node
            fn = node._fn
            if fn is None:
                continue
            g, node.grad = node.grad, None
            node._fn, node._parents = _freed, ()
            if g is not None:
                fn(g)

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __rsub__(self, other):
        return add(_wrap(other), scale(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


class _Node:
    """The graph side of an op output that needs a gradient."""

    __slots__ = ("grad", "_parents", "_fn")

    def __init__(self, parents: tuple, fn):
        self.grad = None
        self._parents = parents
        self._fn = fn


def _freed(g=None):
    """The backward of a node that an earlier ``Tensor.backward`` freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() already freed; "
                       "build the graph again")


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node_of(t: Tensor):
    """Where ``t``'s gradient goes: its op's node, ``t`` itself for a leaf that
    needs a gradient, or None when it needs none."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _attach(out: Tensor, parents, fn) -> Tensor:
    """Make ``out`` an op output that needs a gradient: ``fn`` is its backward,
    ``parents`` its inputs' nodes (None for an input that needs no gradient)."""
    out.requires_grad = True
    out._node = _Node(tuple(p for p in parents if p is not None), fn)
    return out


def _accum(node, g: np.ndarray):
    if node is not None:
        node.grad = g if node.grad is None else node.grad + g


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data + b.data)
    if not (a.requires_grad or b.requires_grad):
        return out
    na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.data.shape, b.data.shape

    def bw(g):
        _accum(na, _unbroadcast(g, a_shape))
        _accum(nb, _unbroadcast(g, b_shape))

    return _attach(out, (na, nb), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data * b.data)
    if not (a.requires_grad or b.requires_grad):
        return out
    na, nb, da, db = _node_of(a), _node_of(b), a.data, b.data

    def bw(g):
        _accum(na, _unbroadcast(g * db, da.shape))
        _accum(nb, _unbroadcast(g * da, db.shape))

    return _attach(out, (na, nb), bw)


def scale(a, k: float) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data * k)
    if not a.requires_grad:
        return out
    na = _node_of(a)

    def bw(g):
        _accum(na, g * k)

    return _attach(out, (na,), bw)


def matmul(a, b) -> Tensor:
    """Matrix product; either side may carry leading batch dimensions."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out = Tensor(a.data @ b.data)
    if not (a.requires_grad or b.requires_grad):
        return out
    na, nb, da, db = _node_of(a), _node_of(b), a.data, b.data

    def bw(g):
        _accum(na, _unbroadcast(g @ np.swapaxes(db, -1, -2), da.shape))
        _accum(nb, _unbroadcast(np.swapaxes(da, -1, -2) @ g, db.shape))

    return _attach(out, (na, nb), bw)


def linear(x, w, b=None) -> Tensor:
    """x W (+ b) over the flattened leading dims of x, as one node.

    The weight gradient is one 2-D product over every leading row, and the bias
    gradient a column sum, instead of one product per batch element.
    """
    x, w = _wrap(x), _wrap(w)
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = x2 @ w.data
    has_bias = b is not None
    if has_bias:
        b = _wrap(b)
        y += b.data
    out = Tensor(y.reshape(x.data.shape[:-1] + y.shape[-1:]))
    if not (x.requires_grad or w.requires_grad or has_bias and b.requires_grad):
        return out
    nx, nw, nb = _node_of(x), _node_of(w), _node_of(b) if has_bias else None
    wd, x_shape = w.data, x.data.shape

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if nx is not None:
            _accum(nx, (g2 @ wd.T).reshape(x_shape))
        _accum(nw, x2.T @ g2)
        if has_bias:
            _accum(nb, g2.sum(axis=0))

    return _attach(out, (nx, nw, nb), bw)


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

    out = Tensor(merge(a @ v).reshape(tuple(lead) + (m, dim)))
    if not (xq.requires_grad or x.requires_grad or wq.requires_grad or wk.requires_grad
            or wv.requires_grad):
        return out
    nxq, nx, nwq, nwk, nwv = (_node_of(t) for t in (xq, x, wq, wk, wv))
    nw_from_x = (nwq, nwk, nwv) if fused else (nwk, nwv)
    wq_data, x_shape, xq_shape = wq.data, x.data.shape, xq.data.shape
    parts = len(w_from_x)

    def bw(g):
        g_h = g.reshape(-1, m, num_heads, dh).transpose(0, 2, 1, 3)
        d_a = g_h @ v.transpose(0, 1, 3, 2)
        d_scores = a * (d_a - (d_a * a).sum(axis=-1, keepdims=True)) * factor
        # [d_q |] d_k | d_v, each head-merged straight into its columns
        d_proj = np.empty((x2.shape[0], parts * dim))
        d_heads = d_proj.reshape(-1, n, parts, num_heads, dh)  # a view: (B, n, part, H, dh)
        d_heads[:, :, -2] = (d_scores.transpose(0, 1, 3, 2) @ q).transpose(0, 2, 1, 3)
        d_heads[:, :, -1] = (a.transpose(0, 1, 3, 2) @ g_h).transpose(0, 2, 1, 3)
        if fused:
            d_heads[:, :, 0] = (d_scores @ k).transpose(0, 2, 1, 3)
        else:
            d_q = merge(d_scores @ k)
        for node, d_w in zip(nw_from_x, np.split(x2.T @ d_proj, parts, axis=1)):
            _accum(node, d_w)
        if nx is not None:
            _accum(nx, (d_proj @ w_in.T).reshape(x_shape))
        if not fused:
            _accum(nwq, xq2.T @ d_q)
            if nxq is not None:
                _accum(nxq, (d_q @ wq_data.T).reshape(xq_shape))

    return _attach(out, (nx, nwq, nwk, nwv) if fused else (nxq, nx, nwq, nwk, nwv), bw)


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    out = Tensor(a.data * mask)
    if not a.requires_grad:
        return out
    na = _node_of(a)

    def bw(g):
        _accum(na, g * mask)

    return _attach(out, (na,), bw)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    z = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0, z) / (1.0 + z)
    out = Tensor(y)
    if not a.requires_grad:
        return out
    na = _node_of(a)

    def bw(g):
        _accum(na, g * y * (1.0 - y))

    return _attach(out, (na,), bw)


def log(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.log(a.data))
    if not a.requires_grad:
        return out
    na, da = _node_of(a), a.data

    def bw(g):
        _accum(na, g / da)

    return _attach(out, (na,), bw)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; the gradient is exactly that of the clamped expression
    (1 inside the interval, 0 where the clamp is active)."""
    a = _wrap(a)
    out = Tensor(np.clip(a.data, lo, hi))
    if not a.requires_grad:
        return out
    na, mask = _node_of(a), (a.data >= lo) & (a.data <= hi)

    def bw(g):
        _accum(na, g * mask)

    return _attach(out, (na,), bw)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)
    if not a.requires_grad:
        return out
    na = _node_of(a)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accum(na, y * (g - inner))

    return _attach(out, (na,), bw)


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
    out = Tensor(xhat * gain.data + bias.data)
    if not (a.requires_grad or gain.requires_grad or bias.requires_grad):
        return out
    na, ngain, nbias = _node_of(a), _node_of(gain), _node_of(bias)
    gd, bias_shape = gain.data, bias.data.shape

    def bw(g):
        _accum(ngain, _unbroadcast(g * xhat, gd.shape))
        _accum(nbias, _unbroadcast(g, bias_shape))
        dxhat = g * gd
        m1 = dxhat.sum(axis=-1, keepdims=True) / n
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        _accum(na, inv_std * (dxhat - m1 - xhat * m2))

    return _attach(out, (na, ngain, nbias), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    for t in tensors:  # a plain loop: any() over a generator costs more per call
        if t.requires_grad:
            break
    else:
        return out
    nodes = [_node_of(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        for node, piece in zip(nodes, np.split(g, np.cumsum(sizes)[:-1], axis=axis)):
            _accum(node, piece)

    return _attach(out, nodes, bw)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.reshape(shape))
    if not a.requires_grad:
        return out
    na, a_shape = _node_of(a), a.data.shape

    def bw(g):
        _accum(na, g.reshape(a_shape))

    return _attach(out, (na,), bw)


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.transpose(axes))
    if not a.requires_grad:
        return out
    na, inverse = _node_of(a), np.argsort(axes)

    def bw(g):
        _accum(na, g.transpose(inverse))

    return _attach(out, (na,), bw)


def broadcast_to(a, shape) -> Tensor:
    a = _wrap(a)
    data = np.empty(shape)
    data[...] = a.data  # the copy np.broadcast_to(...).copy() makes, without its Python wrapper
    out = Tensor(data)
    if not a.requires_grad:
        return out
    na, a_shape = _node_of(a), a.data.shape

    def bw(g):
        _accum(na, _unbroadcast(g, a_shape))

    return _attach(out, (na,), bw)


def getitem(a, key) -> Tensor:
    """Basic slicing only (no integer-array indexing), so grads scatter exactly once."""
    a = _wrap(a)
    out = Tensor(a.data[key])
    if not a.requires_grad:
        return out
    na, a_shape = _node_of(a), a.data.shape

    def bw(g):
        ga = np.zeros(a_shape)
        ga[key] += g
        _accum(na, ga)

    return _attach(out, (na,), bw)


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.mean(axis=axis))
    if not a.requires_grad:
        return out
    na, a_shape = _node_of(a), a.data.shape
    count = a.data.size if axis is None else a_shape[axis]

    def bw(g):
        if axis is None:
            _accum(na, np.full(a_shape, float(g) / count))
        else:
            _accum(na, np.broadcast_to(np.expand_dims(g, axis) / count, a_shape).copy())

    return _attach(out, (na,), bw)


def sum_(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.sum(axis=axis))
    if not a.requires_grad:
        return out
    na, a_shape = _node_of(a), a.data.shape

    def bw(g):
        if axis is None:
            _accum(na, np.broadcast_to(g, a_shape).copy())
        else:
            _accum(na, np.broadcast_to(np.expand_dims(g, axis), a_shape).copy())

    return _attach(out, (na,), bw)
