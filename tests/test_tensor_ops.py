"""Kernel-level contracts: forward oracles, backward vs finite differences,
and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramm import ops
from ramm.errors import ShapeError
from ramm.tensor import finite_difference_gradient, relative_error


# ---------------------------------------------------------------------------
# forward oracles


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Straightforward triple loop, written before the kernel was used."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def softmax_oracle(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        e = [math.exp(v) for v in x[i]]
        s = sum(e)
        out[i] = [v / s for v in e]
    return out


def test_matmul_identity():
    eye = np.eye(2)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ops.matmul(eye, a).value, a)


def test_matmul_selector_row():
    out = ops.matmul(np.array([[1.0, 0.0]]), np.array([[0.0], [5.0]]))
    assert np.allclose(out.value, [[0.0]])


def test_matmul_random_vs_oracle(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert np.allclose(ops.matmul(a, b).value, matmul_oracle(a, b), atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ops.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_associativity(rng):
    for _ in range(10):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        c = rng.normal(size=(5, 2))
        left = ops.matmul(ops.matmul(a, b), c).value
        right = ops.matmul(a, ops.matmul(b, c)).value
        assert relative_error(left, right) < 1e-5


def test_softmax_uniform():
    out = ops.softmax_rows(np.array([[0.0, 0.0, 0.0]])).value
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]])


@given(st.floats(min_value=-50, max_value=50))
@settings(max_examples=30, deadline=None)
def test_softmax_shift_invariance(c):
    out = ops.softmax_rows(np.array([[c, c + math.log(2.0)]])).value
    assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-9)


def test_softmax_random_vs_oracle(rng):
    x = rng.normal(size=(4, 5))
    assert np.allclose(ops.softmax_rows(x).value, softmax_oracle(x), atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    x = rng.normal(size=(6, 9)) * 10
    sums = ops.softmax_rows(x).value.sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_attention_single_key_returns_value(rng):
    q = rng.normal(size=(1, 3))
    v = rng.normal(size=(1, 4))
    out = ops.scaled_dot_attention(q, q, v).value
    assert np.allclose(out, v)


def test_attention_identical_keys_average():
    k = np.array([[1.0, 2.0], [1.0, 2.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = np.array([[3.0, -1.0]])
    out = ops.scaled_dot_attention(q, k, v).value
    assert np.allclose(out, [[0.5, 0.5]])


def test_attention_random_vs_composed_oracle(rng):
    q = rng.normal(size=(2, 3))
    k = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 2))
    scores = matmul_oracle(q, k.T) / math.sqrt(3)
    expected = matmul_oracle(softmax_oracle(scores), v)
    assert np.allclose(ops.scaled_dot_attention(q, k, v).value, expected, atol=1e-12)


def test_attention_convex_combination(rng):
    for _ in range(10):
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 2))
        out = ops.scaled_dot_attention(q, k, v).value
        lo, hi = v.min(axis=0), v.max(axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


def test_linear_identity_and_zero(rng):
    x = rng.normal(size=(3, 4))
    assert np.allclose(ops.linear(x, np.eye(4), np.zeros(4)).value, x)
    b = rng.normal(size=5)
    out = ops.linear(np.zeros((2, 4)), rng.normal(size=(4, 5)), b).value
    assert np.allclose(out, np.tile(b, (2, 1)))


def test_linear_random_vs_oracle(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    assert np.allclose(ops.linear(x, w, b).value, matmul_oracle(x, w) + b)


def test_layer_norm_constant_row_is_zero():
    out = ops.layer_norm(np.full((1, 4), 3.0), np.ones(4), np.zeros(4)).value
    assert np.allclose(out, 0.0)


def test_layer_norm_standardized_row():
    out = ops.layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2),
                         eps=1e-12).value
    assert np.allclose(out, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_random_vs_oracle(rng):
    x = rng.normal(size=(3, 6))
    gain = rng.normal(size=6)
    bias = rng.normal(size=6)
    eps = 1e-5
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    expected = (x - mu) / np.sqrt(var + eps) * gain + bias
    assert np.allclose(ops.layer_norm(x, gain, bias, eps).value, expected)


def _reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """The np.mean / np.var layer norm that the reduce-based kernel
    replaced, kept as the bitwise reference: output and (x, gain, bias)
    gradients for upstream gradient g."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    lead = tuple(range(x.ndim - 1))
    gxhat = g * gain
    gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8), (2, 4, 5, 32)])
def test_layer_norm_bitwise_equals_mean_var_formula(rng, dtype, shape):
    """Value and every gradient equal the np.mean / np.var formula bit for
    bit, zero rows and rows of widely spread scale included."""
    x = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape[:-1] + (1,)))
    x[..., 1, :] = 0.0
    x, gain, bias, g = (a.astype(dtype) for a in (
        x, rng.normal(size=shape[-1]), rng.normal(size=shape[-1]), rng.normal(size=shape)))
    xn, gn, bn = ops.param(x), ops.param(gain), ops.param(bias)
    out = ops.layer_norm(xn, gn, bn)
    got = [out.value, *out.vjp(g)]
    want = _reference_layer_norm(x, gain, bias, g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def test_layer_norm_constant_input_gets_no_gradient(rng):
    """An input that needs no gradient gets None; gain and bias still get theirs."""
    x = rng.normal(size=(3, 4, 6)).astype(np.float32)
    gain, bias = (ops.param(rng.normal(size=6).astype(np.float32)) for _ in range(2))
    out = ops.layer_norm(ops.constant(x), gain, bias)
    g = rng.normal(size=x.shape).astype(np.float32)
    gx, ggain, gbias = out.vjp(g)
    assert gx is None
    want = _reference_layer_norm(x, gain.value, bias.value, g)
    assert np.array_equal(ggain, want[2]) and np.array_equal(gbias, want[3])


def test_cross_entropy_confident_and_uniform():
    logits = np.array([[100.0, 0.0, 0.0]])
    assert float(ops.cross_entropy(logits, [0]).value) < 1e-6
    uniform = np.zeros((2, 5))
    assert abs(float(ops.cross_entropy(uniform, [1, 4]).value) - math.log(5)) < 1e-9


def test_cross_entropy_random_vs_oracle(rng):
    logits = rng.normal(size=(2, 3))
    targets = [2, 0]
    expected = 0.0
    for i, t in enumerate(targets):
        e = np.exp(logits[i] - logits[i].max())
        expected -= math.log(e[t] / e.sum())
    expected /= 2
    assert abs(float(ops.cross_entropy(logits, targets).value) - expected) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        ops.cross_entropy(np.zeros((1, 3)), [3])


def test_kl_zero_and_symmetry(rng):
    p = rng.normal(size=(2, 4))
    assert abs(float(ops.kl_divergence(p, p).value)) < 1e-12
    q = rng.normal(size=(2, 4))
    sym_ab = float(ops.symmetric_kl(p, q).value)
    sym_ba = float(ops.symmetric_kl(q, p).value)
    assert abs(sym_ab - sym_ba) < 1e-12


def test_kl_random_vs_oracle(rng):
    p_logits = rng.normal(size=(1, 3))
    q_logits = rng.normal(size=(1, 3))
    p = softmax_oracle(p_logits)[0]
    q = softmax_oracle(q_logits)[0]
    expected = sum(p[i] * math.log(p[i] / q[i]) for i in range(3))
    assert abs(float(ops.kl_divergence(p_logits, q_logits).value) - expected) < 1e-12


def test_finite_difference_on_sum_and_norm(rng):
    x = rng.normal(size=(2, 3))
    g = finite_difference_gradient(lambda a: float(a.sum()), x)
    assert np.allclose(g, 1.0)
    g = finite_difference_gradient(lambda a: 0.5 * float((a**2).sum()), x)
    assert relative_error(g, x) < 1e-8


def test_finite_difference_matches_cross_entropy_gradient(rng):
    logits = rng.normal(size=(3, 4))
    targets = [0, 2, 3]

    def f(a):
        return float(ops.cross_entropy(ops.constant(a), targets).value)

    node = ops.param(logits.copy())
    loss = ops.cross_entropy(node, targets)
    ops.backward(loss)
    fd = finite_difference_gradient(f, logits)
    assert relative_error(node.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# backward vs finite differences, 20 random small shapes per op


def _check_grad(build, x0, tol=1e-5):
    node = ops.param(x0.copy())
    loss = build(node)
    ops.backward(loss)

    def f(a):
        return float(build(ops.constant(a)).value)

    fd = finite_difference_gradient(f, x0)
    err = relative_error(node.grad, fd)
    assert err < tol, f"gradient mismatch: rel err {err}"


def _random_shape(rng, lo=1, hi=5):
    return (int(rng.integers(lo, hi)), int(rng.integers(lo, hi)))


@pytest.mark.parametrize("trial", range(20))
def test_gradients_all_ops(trial):
    rng = np.random.default_rng(1000 + trial)
    m, k = _random_shape(rng, 2, 5)
    n = int(rng.integers(1, 5))

    b = rng.normal(size=(k, n))
    _check_grad(lambda x: ops.mean_all(ops.matmul(x, ops.constant(b))),
                rng.normal(size=(m, k)))
    a = rng.normal(size=(m, k))
    _check_grad(lambda x: ops.mean_all(ops.matmul(ops.constant(a), x)),
                rng.normal(size=(k, n)))
    weights_sm = rng.normal(size=(m, k))
    _check_grad(lambda x: ops.mean_all(ops.mul(ops.softmax_rows(x),
                                               ops.constant(weights_sm))),
                rng.normal(size=(m, k)))
    gain = rng.normal(size=k)
    bias = rng.normal(size=k)
    weights_ln = rng.normal(size=(m, k))
    _check_grad(
        lambda x: ops.mean_all(ops.mul(
            ops.layer_norm(x, ops.constant(gain), ops.constant(bias)),
            ops.constant(weights_ln))),
        rng.normal(size=(m, k)))
    _check_grad(lambda x: ops.mean_all(ops.gelu(x)), rng.normal(size=(m, k)))
    _check_grad(lambda x: ops.mean_all(ops.l2_normalize_rows(x)),
                rng.normal(size=(m, k)) + 0.5)
    targets = [int(t) for t in rng.integers(0, k, size=m)]
    _check_grad(lambda x: ops.cross_entropy(x, targets), rng.normal(size=(m, k)))
    q_logits = rng.normal(size=(m, k))
    _check_grad(lambda x: ops.kl_divergence(x, ops.constant(q_logits)),
                rng.normal(size=(m, k)))
    _check_grad(lambda x: ops.kl_divergence(ops.constant(q_logits), x),
                rng.normal(size=(m, k)))
    kk = rng.normal(size=(4, k))
    vv = rng.normal(size=(4, n))
    _check_grad(
        lambda x: ops.mean_all(ops.scaled_dot_attention(
            x, ops.constant(kk), ops.constant(vv))),
        rng.normal(size=(m, k)))
    wmat = rng.normal(size=(k, n))
    bvec = rng.normal(size=n)
    _check_grad(lambda x: ops.mean_all(ops.linear(x, ops.constant(wmat),
                                                  ops.constant(bvec))),
                rng.normal(size=(m, k)))


def test_gradients_attention_wrt_keys_and_values():
    rng = np.random.default_rng(77)
    q = rng.normal(size=(2, 3))
    k0 = rng.normal(size=(4, 3))
    v0 = rng.normal(size=(4, 2))
    _check_grad(
        lambda x: ops.mean_all(ops.scaled_dot_attention(ops.constant(q), x,
                                                        ops.constant(v0))), k0)
    _check_grad(
        lambda x: ops.mean_all(ops.scaled_dot_attention(ops.constant(q),
                                                        ops.constant(k0), x)), v0)


def test_tensor_invariant_rejects_nonfinite():
    from ramm.tensor import Tensor

    with pytest.raises(Exception):
        Tensor(np.array([1.0, np.inf]))


# ---------------------------------------------------------------------------
# ops over a leading batch axis


def test_backward_never_mutates_a_shared_gradient():
    """add hands one array to both parents; a later contribution to one of
    them must not change the other's gradient."""
    a = ops.param(np.zeros((2, 3)))
    b = ops.param(np.zeros((2, 3)))
    ops.backward(ops.mean_all(ops.add(ops.add(a, b), a)))
    assert np.allclose(a.grad, 2.0 / 6) and np.allclose(b.grad, 1.0 / 6)


def test_linear_shares_weight_over_leading_axes(rng):
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=5)
    out = ops.linear(x, w, b).value
    for i in range(2):
        assert np.allclose(out[i], ops.linear(x[i], w, b).value, atol=1e-12)
    weights = rng.normal(size=(2, 3, 5))

    def loss(xn, wn, bn):
        return ops.mean_all(ops.mul(ops.linear(xn, wn, bn), ops.constant(weights)))

    _check_grad(lambda n: loss(n, ops.constant(w), ops.constant(b)), x)
    _check_grad(lambda n: loss(ops.constant(x), n, ops.constant(b)), w)
    _check_grad(lambda n: loss(ops.constant(x), ops.constant(w), n), b)


def test_batched_matmul_gradients(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 2))
    _check_grad(lambda n: ops.mean_all(ops.gelu(ops.matmul(n, ops.constant(b)))), a)
    _check_grad(lambda n: ops.mean_all(ops.gelu(ops.matmul(ops.constant(a), n))), b)


def _key_mask(valid, nk):
    return np.where(np.arange(nk) < np.asarray(valid)[:, None], 0.0, -1e9)


def test_masked_attention_equals_attention_over_valid_keys(rng):
    q = rng.normal(size=(2, 3, 4))
    k = rng.normal(size=(2, 5, 4))
    v = rng.normal(size=(2, 5, 2))
    valid = [5, 2]
    out = ops.scaled_dot_attention(q, k, v, _key_mask(valid, 5)[:, None, :]).value
    for i, n in enumerate(valid):
        want = ops.scaled_dot_attention(q[i], k[i, :n], v[i, :n]).value
        assert np.allclose(out[i], want, atol=1e-12)


def test_attention_with_every_key_masked_stays_finite(rng):
    q, k, v = rng.normal(size=(1, 2, 3)), rng.normal(size=(1, 4, 3)), rng.normal(size=(1, 4, 2))
    out = ops.scaled_dot_attention(q, k, v, _key_mask([0], 4)[:, None, :]).value
    assert np.all(np.isfinite(out))


def test_masked_attention_gradients(rng):
    q = rng.normal(size=(2, 3, 4))
    k = rng.normal(size=(2, 5, 4))
    v = rng.normal(size=(2, 5, 2))
    mask = _key_mask([5, 3], 5)[:, None, :]
    w = rng.normal(size=(2, 3, 2))

    def loss(qn, kn, vn):
        return ops.mean_all(ops.mul(ops.scaled_dot_attention(qn, kn, vn, mask),
                                    ops.constant(w)))

    _check_grad(lambda n: loss(n, ops.constant(k), ops.constant(v)), q)
    _check_grad(lambda n: loss(ops.constant(q), n, ops.constant(v)), k)
    _check_grad(lambda n: loss(ops.constant(q), ops.constant(k), n), v)


def test_axis_slice_concat_and_scatter_gradients(rng):
    x = rng.normal(size=(2, 4, 3))
    other = rng.normal(size=(2, 1, 3))
    w = rng.normal(size=(2, 5, 3))
    wide = rng.normal(size=(2, 4, 6))
    assert np.array_equal(ops.slice_rows(x, 1, 3, axis=-2).value, x[:, 1:3])
    _check_grad(lambda n: ops.mean_all(ops.gelu(ops.slice_rows(n, 1, 3, axis=-2))), x)
    # concat along the row axis and along the feature axis
    _check_grad(lambda n: ops.mean_all(ops.mul(
        ops.concat_rows([ops.constant(other), n], axis=-2), ops.constant(w))), x)
    right = rng.normal(size=(2, 4, 3))
    _check_grad(lambda n: ops.mean_all(ops.mul(
        ops.concat_rows([n, ops.constant(right)], axis=-1), ops.constant(wide))), x)
    # scatter-add into row 1: every other row passes through bitwise
    out = ops.add_to_rows(x, other, 1).value
    assert np.array_equal(out[:, [0, 2, 3]], x[:, [0, 2, 3]])
    assert np.allclose(out[:, 1:2], x[:, 1:2] + other)
    ws = rng.normal(size=(2, 4, 3))
    _check_grad(lambda n: ops.mean_all(ops.mul(
        ops.add_to_rows(n, ops.constant(other), 1), ops.constant(ws))), x)
    _check_grad(lambda n: ops.mean_all(ops.mul(
        ops.add_to_rows(ops.constant(right), ops.gelu(n), 1), ops.constant(ws))), other)


def test_broadcast_add_and_batched_gather_gradients(rng):
    x = rng.normal(size=(2, 3, 4))
    row = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 3, 4))
    _check_grad(lambda n: ops.mean_all(ops.mul(ops.add(ops.constant(x), n),
                                               ops.constant(w))), row)
    with pytest.raises(ShapeError):
        ops.add(row, x)
    table = rng.normal(size=(3, 2, 4))
    ids = np.array([[2, 0], [2, 2]])
    wg = rng.normal(size=(2, 2, 2, 4))
    _check_grad(lambda n: ops.mean_all(ops.mul(ops.gather_rows(n, ids),
                                               ops.constant(wg))), table)


def test_weighted_cross_entropy(rng):
    logits = rng.normal(size=(4, 3))
    targets = [0, 2, 1, 1]
    weights = np.array([0.5, 0.25, 0.125, 0.125])
    want = sum(wi * float(ops.cross_entropy(logits[i : i + 1], [t]).value)
               for i, (wi, t) in enumerate(zip(weights, targets)))
    got = float(ops.cross_entropy(logits, targets, weights).value)
    assert abs(got - want) < 1e-12
    _check_grad(lambda n: ops.cross_entropy(n, targets, weights), logits)


# ---------------------------------------------------------------------------
# fused multi-head attention


def _mha_inputs(rng, lead, nq, nk, d, dtype=np.float64):
    """x_q, x_kv, then wq, bq, wk, wv, bv, wo, bo."""
    shapes = [lead + (nq, d), lead + (nk, d), (d, d), (d,), (d, d)] + [(d, d), (d,)] * 2
    return [rng.normal(size=s).astype(dtype) for s in shapes]


def _mha_composed(x_q, x_kv, wq, bq, wk, wv, bv, wo, bo, n_head, mask, bk=None):
    """Multi-head attention composed from linear, reshape, transpose and
    scaled_dot_attention, one node per step; the key projection adds `bk`,
    a constant zero bias unless given."""
    d = x_q.value.shape[-1]
    dh = d // n_head
    lead = x_q.value.shape[:-2]
    heads = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)

    def split(x, w, b):
        y = ops.linear(x, w, b)
        return ops.transpose(ops.reshape(y, lead + (y.shape[-2], n_head, dh)), heads)

    if bk is None:
        bk = ops.constant(np.zeros(d, dtype=wk.value.dtype))
    q, k, v = split(x_q, wq, bq), split(x_kv, wk, bk), split(x_kv, wv, bv)
    if mask is not None:
        mask = mask.reshape(lead + (1, 1, k.shape[-2]))
    out = ops.scaled_dot_attention(q, k, v, mask)
    out = ops.reshape(ops.transpose(out, heads), lead + (x_q.value.shape[-2], d))
    return ops.linear(out, wo, bo)


def _mha_run(attention, inputs, same, n_head, mask, w):
    """Value and input gradients of mean(attention(*inputs) * w); with `same`
    one node is both x_q and x_kv."""
    nodes = [ops.param(a.copy()) for a in inputs]
    if same:
        nodes[1] = nodes[0]
    out = attention(*nodes, n_head, mask)
    ops.backward(ops.mean_all(ops.mul(out, ops.constant(w))))
    return [out.value] + [n.grad for n in nodes]


# (lead, nq, nk, d, n_head, key lengths or None, x_q is x_kv)
MHA_CASES = [
    ((2,), 3, 4, 4, 2, [4, 2], False),     # batched cross-attention, key mask
    ((), 3, 5, 6, 3, None, False),         # unbatched
    ((2,), 3, 3, 4, 2, [3, 1], True),      # self-attention, one input node
    ((3,), 1, 5, 8, 2, [5, 2, 1], False),  # one retrieval query over r+1 CLS rows
]


@pytest.mark.parametrize("case", MHA_CASES[:3])
def test_multi_head_attention_gradients(case):
    lead, nq, nk, d, n_head, valid, same = case
    rng = np.random.default_rng(31)
    inputs = _mha_inputs(rng, lead, nq, nk, d)
    mask = None if valid is None else _key_mask(valid, nk)
    w = rng.normal(size=lead + (nq, d))
    for i in range(1 if same else 0, 9):
        def loss(n, i=i):
            args = [ops.constant(a) for a in inputs]
            args[i] = n
            if same:
                args[0] = args[1]
            out = ops.multi_head_attention(*args, n_head, mask)
            return ops.mean_all(ops.mul(out, ops.constant(w)))

        _check_grad(loss, inputs[i])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", MHA_CASES)
def test_multi_head_attention_is_bitwise_the_composition(case, dtype):
    """The fused node gives exactly the value and the nine gradients of the
    composition it replaces."""
    lead, nq, nk, d, n_head, valid, same = case
    rng = np.random.default_rng(47)
    inputs = _mha_inputs(rng, lead, nq, nk, d, dtype)
    mask = None if valid is None else _key_mask(valid, nk)
    w = rng.normal(size=lead + (nq, d)).astype(dtype)

    fused = _mha_run(ops.multi_head_attention, inputs, same, n_head, mask, w)
    composed = _mha_run(_mha_composed, inputs, same, n_head, mask, w)
    assert fused[0].dtype == dtype
    for got, want in zip(fused, composed):
        assert np.array_equal(got, want)


def test_multi_head_attention_every_key_masked_stays_finite(rng):
    inputs = _mha_inputs(rng, (2,), 3, 4, 4)
    nodes = [ops.param(a) for a in inputs]
    out = ops.multi_head_attention(*nodes, 2, _key_mask([4, 0], 4))
    ops.backward(ops.mean_all(out))
    assert np.all(np.isfinite(out.value))
    assert all(np.all(np.isfinite(n.grad)) for n in nodes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 1), (3, 2), (8, 5, 2, 8, 8), (40, 9), (40, 17)])
def test_row_max_equals_max_reduction(rng, dtype, shape):
    """The softmax shift of multi_head_attention equals max(axis=-1,
    keepdims=True) on rows of finite values and on rows mixing NaN, +-inf
    and +-0 (NaN wins, as in the reduction), one-column rows included. The
    sign of a zero maximum may differ, which leaves exp(z - max) unchanged."""
    finite = rng.normal(size=shape).astype(dtype)
    special = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0]),
                         size=shape).astype(dtype)
    for z in (finite, special):
        got, want = ops._row_max(z), z.max(axis=-1, keepdims=True)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        with np.errstate(invalid="ignore"):   # inf - inf
            assert np.array_equal(np.exp(z - got), np.exp(z - want), equal_nan=True)


@pytest.mark.parametrize("case", MHA_CASES)
def test_multi_head_attention_ignores_a_key_bias(case):
    """A key bias adds q·b_k to every score of a query's row, which the
    softmax cancels: the composition with a random key bias gives the fused
    op's value and gradients to float64 rounding."""
    lead, nq, nk, d, n_head, valid, same = case
    rng = np.random.default_rng(53)
    inputs = _mha_inputs(rng, lead, nq, nk, d)
    bk = ops.constant(rng.normal(size=d))
    mask = None if valid is None else _key_mask(valid, nk)
    w = rng.normal(size=lead + (nq, d))

    fused = _mha_run(ops.multi_head_attention, inputs, same, n_head, mask, w)
    biased = _mha_run(lambda *args: _mha_composed(*args, bk=bk), inputs, same, n_head, mask, w)
    for got, want in zip(fused, biased):
        assert np.abs(got - want).max() < 1e-12
