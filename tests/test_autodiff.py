import numpy as np
import pytest

from prefetchlab import autodiff as ad
from prefetchlab.autodiff import Tensor


def numeric_grad(fn, arrays, h=1e-6):
    """Central finite differences of a scalar-valued fn over each input array."""
    grads = []
    for target in arrays:
        g = np.zeros_like(target)
        flat = target.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = fn()
            flat[i] = keep - h
            down = fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def check_op(build, shapes, seed=0, h=1e-6, tol=1e-7):
    """build(tensors) -> output Tensor; compares backward grads with numeric."""
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(0.2, 1.0, size=s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]

    out = build(*tensors)
    # reduce to a scalar with fixed weights so every output entry matters
    weights = rng.uniform(0.5, 1.5, size=out.shape)
    ad.sum_(ad.mul(out, Tensor(weights))).backward()
    analytic = [t.grad for t in tensors]

    def scalar():
        fresh = [Tensor(a) for a in arrays]
        return float((build(*fresh).data * weights).sum())

    numeric = numeric_grad(scalar, arrays, h=h)
    for a, n in zip(analytic, numeric):
        assert a is not None
        assert np.max(np.abs(a - n)) < tol, f"max abs err {np.max(np.abs(a - n))}"


class TestElementwise:
    def test_add(self):
        check_op(ad.add, [(3, 4), (3, 4)])

    def test_add_broadcast(self):
        check_op(ad.add, [(2, 3, 4), (4,)])
        check_op(ad.add, [(2, 3, 4), (1, 4)])
        check_op(ad.add, [(5, 1), (1, 6)])

    def test_mul(self):
        check_op(ad.mul, [(3, 4), (3, 4)])
        check_op(ad.mul, [(2, 3, 4), (3, 4)])

    def test_scale(self):
        check_op(lambda a: ad.scale(a, -2.5), [(4, 4)])

    def test_relu(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, size=(5, 5))
        a[np.abs(a) < 1e-3] = 0.5  # keep clear of the kink
        t = Tensor(a, requires_grad=True)
        ad.sum_(ad.relu(t)).backward()
        assert np.array_equal(t.grad, (a > 0).astype(float))

    def test_sigmoid(self):
        check_op(ad.sigmoid, [(4, 3)])

    def test_sigmoid_stable_at_extremes(self):
        out = ad.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.allclose(out.data, [0.0, 0.5, 1.0])
        assert np.isfinite(out.data).all()

    def test_log(self):
        check_op(ad.log, [(4, 4)])

    def test_clip_gradient_masks_clamped_region(self):
        a = Tensor(np.array([0.1, 0.5, 0.9]), requires_grad=True)
        ad.sum_(ad.clip(a, 0.2, 0.8)).backward()
        assert np.array_equal(a.grad, [0.0, 1.0, 0.0])


class TestMatmul:
    def test_plain(self):
        check_op(ad.matmul, [(3, 4), (4, 5)])

    def test_batched_left(self):
        check_op(ad.matmul, [(2, 3, 4), (4, 5)])

    def test_both_batched(self):
        check_op(ad.matmul, [(2, 3, 4), (2, 4, 5)])

    def test_multi_batch_dims(self):
        check_op(ad.matmul, [(2, 2, 3, 4), (2, 2, 4, 3)])

    def test_vector_rejected(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestLinear:
    @pytest.mark.parametrize("shapes", [
        [(3, 4), (4, 5)],
        [(2, 3, 4), (4, 5)],
        [(3, 4), (4, 5), (5,)],
        [(2, 3, 4), (4, 5), (5,)],
    ], ids=["2d", "3d", "2d-bias", "3d-bias"])
    def test_gradient(self, shapes):
        check_op(ad.linear, shapes)

    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        want = ad.add(ad.matmul(Tensor(x), Tensor(w)), Tensor(b)).data
        assert np.array_equal(ad.linear(Tensor(x), Tensor(w), Tensor(b)).data, want)


class TestMultiHeadAttention:
    SHAPES = [(2, 5, 4), (4, 4), (4, 4), (4, 4)]

    def test_gradient_self_attention(self):
        check_op(lambda x, wq, wk, wv: ad.multi_head_attention(x, x, wq, wk, wv, 2), self.SHAPES)

    def test_gradient_classification_row(self):
        # queries from row 0 only; keys and values from every row of the same x
        check_op(lambda x, wq, wk, wv: ad.multi_head_attention(x[:, :1], x, wq, wk, wv, 2),
                 self.SHAPES)

    def test_gradient_unbatched(self):
        check_op(lambda x, wq, wk, wv: ad.multi_head_attention(x, x, wq, wk, wv, 1),
                 [(3, 4), (4, 4), (4, 4), (4, 4)])

    def test_nonfinite_projection_rejected(self):
        x = Tensor(np.ones((1, 2, 4)))
        ws = [Tensor(np.eye(4)) for _ in range(3)]
        ws[1].data[0, 0] = np.inf
        with pytest.raises(ad.NumericError):
            ad.multi_head_attention(x, x, *ws, 2)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        y = ad.softmax(Tensor(rng.normal(size=(3, 4)))).data
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_gradient(self):
        check_op(lambda a: ad.softmax(a, axis=-1), [(3, 5)])
        check_op(lambda a: ad.softmax(a, axis=-1), [(2, 3, 4)])

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6))
        assert np.allclose(ad.softmax(Tensor(x)).data, ad.softmax(Tensor(x + 100.0)).data)


class TestLayerNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 3.0, size=(4, 8))
        y = ad.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_gradient(self):
        check_op(ad.layer_norm, [(3, 6), (6,), (6,)], tol=1e-6)
        check_op(ad.layer_norm, [(2, 3, 6), (6,), (6,)], tol=1e-6)


class TestShapeOps:
    def test_concat(self):
        check_op(lambda a, b: ad.concat([a, b], axis=1), [(2, 3, 4), (2, 2, 4)])

    def test_reshape(self):
        check_op(lambda a: ad.reshape(a, (6, 2)), [(3, 4)])

    def test_transpose(self):
        check_op(lambda a: ad.transpose(a, (0, 2, 1, 3)), [(2, 3, 4, 5)])

    def test_broadcast_to(self):
        check_op(lambda a: ad.broadcast_to(a, (4, 3, 5)), [(1, 3, 5)])

    def test_getitem(self):
        check_op(lambda a: a[:, 0, :], [(3, 4, 5)])
        check_op(lambda a: a[1:, :2], [(4, 4)])

    def test_mean_and_sum(self):
        check_op(lambda a: ad.mean(a), [(3, 4)])
        check_op(lambda a: ad.mean(a, axis=1), [(3, 4)])
        check_op(lambda a: ad.sum_(a, axis=0), [(3, 4)])


# every op, as (build, input shapes); the first input is the one a gradient reaches
OPS = {
    "add": (ad.add, [(2, 3), (3,)]),
    "mul": (ad.mul, [(2, 3), (2, 3)]),
    "scale": (lambda a: ad.scale(a, 2.0), [(2, 3)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "linear": (ad.linear, [(2, 3), (3, 4), (4,)]),
    "multi_head_attention": (lambda x, wq, wk, wv: ad.multi_head_attention(x, x, wq, wk, wv, 2),
                             [(1, 3, 4), (4, 4), (4, 4), (4, 4)]),
    "relu": (ad.relu, [(2, 3)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "log": (ad.log, [(2, 3)]),
    "clip": (lambda a: ad.clip(a, 0.3, 0.8), [(2, 3)]),
    "softmax": (ad.softmax, [(2, 3)]),
    "layer_norm": (ad.layer_norm, [(2, 3), (3,), (3,)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=0), [(2, 3), (1, 3)]),
    "reshape": (lambda a: ad.reshape(a, (3, 2)), [(2, 3)]),
    "transpose": (lambda a: ad.transpose(a, (1, 0)), [(2, 3)]),
    "broadcast_to": (lambda a: ad.broadcast_to(a, (4, 2, 3)), [(1, 2, 3)]),
    "getitem": (lambda a: a[:, 1:], [(2, 3)]),
    "mean": (ad.mean, [(2, 3)]),
    "sum": (ad.sum_, [(2, 3)]),
}


class TestGraph:
    def test_gradient_accumulates_on_reuse(self):
        a = Tensor(np.array([[2.0]]), requires_grad=True)
        out = ad.add(ad.matmul(a, a), a)  # a*a + a -> d/da = 2a + 1
        out.backward()
        assert np.allclose(a.grad, [[5.0]])

    def test_constants_carry_no_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)))
        out = ad.sum_(ad.mul(a, c))
        out.backward()
        assert c.grad is None and a.grad is not None

    def test_no_graph_without_requires_grad(self):
        a = Tensor(np.ones((2, 2)))
        out = ad.mul(a, a)
        assert out._node is None and not out.requires_grad

    @pytest.mark.parametrize("build, shapes", list(OPS.values()), ids=list(OPS))
    def test_op_on_constants_builds_no_node(self, build, shapes):
        rng = np.random.default_rng(5)
        arrays = [rng.uniform(0.2, 1.0, size=s) for s in shapes]
        out = build(*(Tensor(x) for x in arrays))
        assert out._node is None and not out.requires_grad
        # the same op on one input that needs a gradient builds a node
        leaves = [Tensor(x, requires_grad=i == 0) for i, x in enumerate(arrays)]
        out = build(*leaves)
        assert out.requires_grad and out._node._parents[0] is leaves[0]

    @pytest.mark.parametrize("build, shapes", list(OPS.values()), ids=list(OPS))
    def test_backward_keeps_no_tensor(self, build, shapes):
        """A node's closure holds arrays, shapes and its parents' nodes, never a
        parent Tensor: here every input is an op output, whose node is not itself."""
        rng = np.random.default_rng(6)
        inputs = [ad.scale(Tensor(rng.uniform(0.2, 1.0, size=s), requires_grad=True), 1.0)
                  for s in shapes]
        out = build(*inputs)
        assert out._node._parents == tuple(t._node for t in inputs)
        cells = []
        for cell in out._node._fn.__closure__:
            try:
                cells.append(cell.cell_contents)
            except ValueError:  # a name the closure reads only on a branch this op did not take
                pass
        assert not any(isinstance(c, Tensor) for c in cells), cells

    def test_operator_sugar(self):
        a = Tensor(np.full((2, 2), 3.0), requires_grad=True)
        out = ad.sum_((1.0 - a) * 2.0 + a)
        out.backward()
        assert np.allclose(a.grad, -1.0)
        assert out.item() == ((1 - 3) * 2 + 3) * 4


def retaining_backward(root):
    """The backward loop before the graph was freed: the same walk over the same
    nodes in the same order, but every node keeps its grad, closure and parents.
    A reference for the tests."""
    start = root._node
    topo, visited = [], set()
    stack = [(start, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    start.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._fn is not None and node.grad is not None:
            node._fn(node.grad)


def reachable(root):
    """Every graph node reachable from root's through parent links, root's included."""
    start = root if root._node is None else root._node
    seen, stack = {id(start): start}, [start]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class TestFreedGraph:
    @staticmethod
    def diamond():
        """a feeds two branches that meet again, so a's grad accumulates twice."""
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        h = ad.relu(ad.linear(a, w))
        out = ad.sum_(ad.add(ad.mul(h, h), ad.matmul(a, w)))
        return a, w, h, out

    def test_leaf_grads_match_retaining_loop(self):
        a, w, _, out = self.diamond()
        retaining_backward(out)
        a2, w2, _, out2 = self.diamond()
        out2.backward()
        assert np.array_equal(a2.grad, a.grad) and np.array_equal(w2.grad, w.grad)

    def test_graph_freed_after_backward(self):
        a, w, h, out = self.diamond()
        nodes = reachable(out)
        assert any(n is a for n in nodes) and any(n is w for n in nodes)
        assert any(n is h._node for n in nodes) and len(nodes) == 8
        out.backward()
        assert out._node.grad is None and h._node.grad is None
        assert h._node._parents == () and reachable(out) == [out._node]
        assert a.grad is not None and w.grad is not None

    def test_second_backward_raises(self):
        a, _, _, out = self.diamond()
        out.backward()
        before = a.grad.copy()
        with pytest.raises(RuntimeError, match="earlier backward"):
            out.backward()
        assert np.array_equal(a.grad, before)

    def test_graph_built_on_freed_node_raises(self):
        a, w, h, out = self.diamond()
        out.backward()
        before = a.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError, match="earlier backward"):
            # the fresh matmul's backward would run before h's is reached
            ad.sum_(ad.add(ad.matmul(a, w), ad.scale(h, 2.0))).backward()
        # refused before any gradient moved
        assert np.array_equal(a.grad, before[0]) and np.array_equal(w.grad, before[1])

    def test_leaf_backward_keeps_working(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        a.backward()
        a.backward(np.full((2, 2), 3.0))
        assert np.array_equal(a.grad, np.full((2, 2), 3.0))
