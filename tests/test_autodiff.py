"""Reverse-mode mechanics: tape, accumulation, lifecycle, Adam, grad_check."""

import functools

import numpy as np
import pytest

from lvfsr.checks import fusion_builder, network_builder, op_builders
from lvfsr.errors import GraphError, NonFiniteError
from lvfsr.numeric import (AdamHyper, AdamState, Tensor, adam_step, add,
                           backward, grad_check, mean_all, mul,
                           scaled_dot_attention, sigmoid, sum_all, zero_grads)
from lvfsr.numeric.tensor import constant, parameter


def test_backward_returns_named_grads():
    x = parameter(np.array([1.0, 2.0, 3.0]), "x")
    y = parameter(np.array([4.0, 5.0, 6.0]), "y")
    loss = sum_all(mul(x, y))
    grads = backward(loss)
    assert set(grads) == {"x", "y"}
    assert np.array_equal(grads["x"].data, y.data)
    assert np.array_equal(grads["y"].data, x.data)
    # leaf .grad mirrors the returned map
    assert np.array_equal(x.grad, y.data)


def test_gradient_accumulates_across_shared_use():
    x = parameter(np.array([2.0]), "x")
    loss = sum_all(add(mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    grads = backward(loss)
    assert grads["x"].data == pytest.approx(5.0)


def test_second_backward_rejected():
    x = parameter(np.ones(3), "x")
    loss = sum_all(mul(x, x))
    backward(loss)
    with pytest.raises(GraphError):
        backward(loss)


def test_backward_requires_scalar_with_grad():
    x = parameter(np.ones(3), "x")
    with pytest.raises(GraphError):
        backward(mul(x, x))  # non-scalar
    with pytest.raises(GraphError):
        backward(constant(np.array(1.0)))  # no grad anywhere


def test_no_tape_without_requires_grad():
    a = constant(np.ones(4))
    out = mul(add(a, a), a)
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()


def test_zero_grads():
    x = parameter(np.ones(2), "x")
    backward(sum_all(mul(x, x)))
    assert x.grad is not None
    zero_grads({"x": x})
    assert x.grad is None


def test_forward_non_finite_raises_named_op():
    x = parameter(np.array([1e308]), "x")
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as ei:
        add(x, x)
    assert "add" in str(ei.value)


# --- Adam ---------------------------------------------------------------

def _p(val, name):
    return parameter(np.array(val, dtype=np.float32), name)


def test_adam_single_step_closed_form():
    p = _p([1.0, -2.0], "w")
    g = {"w": Tensor(np.array([0.5, -0.5]))}
    state = AdamState()
    hyper = AdamHyper(lr=0.1, beta1=0.9, beta2=0.99, eps=1e-8)
    adam_step({"w": p}, g, state, hyper, t=1)
    # bias-corrected first step: update = lr * sign(g) / (1 + eps')
    m_hat = 0.1 * 0.5 / (1 - 0.9)
    v_hat = 0.01 * 0.25 / (1 - 0.99)
    expect = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p.data[0] == pytest.approx(expect, rel=1e-6)
    assert p.data[1] == pytest.approx(-2.0 + 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8),
                                      rel=1e-6)


def test_adam_missing_grad_decays_moments():
    p = _p([1.0], "w")
    state = AdamState()
    hyper = AdamHyper()
    adam_step({"w": p}, {"w": Tensor(np.array([1.0]))}, state, hyper, t=1)
    m1 = state.m["w"].copy()
    adam_step({"w": p}, {}, state, hyper, t=2)  # no grad: g = 0
    assert np.allclose(state.m["w"], m1 * hyper.beta1)


def test_adam_rejects_non_finite_grad():
    p = _p([1.0], "w")
    before = p.data.copy()
    with pytest.raises(NonFiniteError):
        adam_step({"w": p}, {"w": Tensor(np.array([np.nan]))},
                  AdamState(), AdamHyper(), t=1)
    assert np.array_equal(p.data, before)  # no partial update


def test_adam_requires_positive_step():
    with pytest.raises(ValueError):
        adam_step({}, {}, AdamState(), AdamHyper(), t=0)


# --- grad_check over the op suite ----------------------------------------

@pytest.mark.parametrize("name,builder", op_builders())
def test_grad_check_each_op(name, builder):
    assert grad_check(builder, seed=0) < 1e-4


def test_grad_check_constant_loss_reports_zero_grads():
    def builder(seed):
        p = {"x": parameter(np.ones(3), "x")}

        def forward():
            return mean_all(constant(np.ones(3)))

        return p, forward

    # analytic side is empty; numeric side is 0 everywhere -> error 0
    assert grad_check(builder, seed=0) == 0.0


def test_grad_check_detects_wrong_backward():
    # a loss whose analytic gradient is deliberately broken via a fake op
    from lvfsr.numeric.tensor import make_node

    def bad_square(x):
        def bwd(g):
            return (g * 3.0 * x.data,)  # wrong: should be 2x

        return make_node(x.data * x.data, "bad_square", (x,), bwd)

    def builder(seed):
        p = {"x": parameter(np.array([1.5, -0.5]), "x")}

        def forward():
            return sum_all(bad_square(p["x"]))

        return p, forward

    assert grad_check(builder, seed=0) > 1e-2


def test_grad_check_batched_attention():
    def builder(seed):
        rng = np.random.default_rng(seed)
        p = {"q": parameter(rng.uniform(-1, 1, (3, 8)), "q"),
             "k": parameter(rng.uniform(-1, 1, (2, 4, 8)), "k"),
             "v": parameter(rng.uniform(-1, 1, (2, 4, 8)), "v")}
        w = constant(rng.uniform(-1, 1, (2, 3, 8)))

        def forward():
            return mean_all(mul(scaled_dot_attention(p["q"], p["k"], p["v"], heads=2), w))

        return p, forward

    assert grad_check(builder, seed=4) < 1e-6


def _pointwise_builder(seed, fail_at=None):
    """A small loss; with fail_at set, perturbing that entry of x raises."""
    rng = np.random.default_rng(seed)
    p = {"x": parameter(rng.uniform(0.5, 1.5, (3, 4)), "x"),
         "y": parameter(rng.uniform(-1.0, 1.0, (4,)), "y")}
    base = p["x"].data.copy()

    def forward():
        if fail_at is not None and p["x"].data.flat[fail_at] != base.flat[fail_at]:
            raise RuntimeError("entry under test")
        return mean_all(sigmoid(mul(mul(p["x"], p["x"]), p["y"])))

    return p, forward


def _points_builder(seed, calls=None):
    """_pointwise_builder behind the batched `points` protocol."""
    p, plain = _pointwise_builder(seed)

    def forward(changed=None, points=None):
        if points is None:
            return plain()
        flat = p[changed].data.reshape(-1)
        out = []
        for idx, value in points:
            orig, flat[idx] = flat[idx], value
            out.append(float(plain().data))
            flat[idx] = orig
        if calls is not None:
            calls.append((changed, len(points)))
        return out

    return p, forward


def test_grad_check_points_protocol_matches_plain():
    want = grad_check(_pointwise_builder, seed=2)
    calls = []
    assert grad_check(functools.partial(_points_builder, calls=calls), seed=2) == want
    assert calls == [("x", 24), ("y", 8)]
    assert grad_check(_points_builder, seed=2, workers=2) == want


def _changed_builder(seed, calls=None):
    """_pointwise_builder behind the `changed` hint, checking every hint.

    A call whose hint does not name the one parameter that differs from the
    base (or names one when none differs) raises, in a worker process too.
    """
    p, plain = _pointwise_builder(seed)
    base = {name: t.data.copy() for name, t in p.items()}

    def forward(changed=None):
        moved = [n for n, t in p.items() if not np.array_equal(t.data, base[n])]
        if moved != ([] if changed is None else [changed]):
            raise RuntimeError(f"hint {changed!r} for moved parameters {moved}")
        if calls is not None:
            calls.append(changed)
        return plain()

    return p, forward


@pytest.mark.parametrize("workers", [1, 2])
def test_grad_check_changed_hint_names_each_perturbed_parameter(workers):
    want = grad_check(_pointwise_builder, seed=2)
    calls = []
    got = grad_check(functools.partial(_changed_builder, calls=calls), seed=2,
                     workers=workers)
    assert got == want
    # this process keeps entries 0, workers, 2 * workers, ... of x (12) and y (4)
    # after the taped base call and the refresh
    assert calls == [None, None] + ["x"] * (24 // workers) + ["y"] * (8 // workers)


def _recording(builder, losses, hide_hint=False):
    """builder whose forward records each loss; hide_hint hides `changed`."""
    def wrapped(seed):
        params, forward = builder(seed)

        def record(**hint):
            loss = forward(**hint)
            losses.append(loss.data.tobytes())
            return loss

        return params, record if hide_hint else functools.wraps(forward)(record)

    return wrapped


def test_fusion_builder_staged_losses_equal_plain_bytes():
    staged, plain = [], []
    got = grad_check(_recording(fusion_builder, staged), seed=0)
    want = grad_check(_recording(fusion_builder, plain, hide_hint=True), seed=0)
    assert got == want
    entries = sum(t.data.size for t in fusion_builder(0)[0].values())
    assert len(staged) == 2 * entries + 2
    assert staged == plain


def test_network_builder_resumes_from_model_stages():
    # building runs the exact and batched comparisons against Model.forward
    params, forward = network_builder(0)
    base = float(forward().data)
    for name in ("feat.conv.weight", "mask_enc.conv.bias", "block0.fusion.des.s1.q.weight",
                 "block0.fusion.fuse.weight", "block1.body.t1.mlp.fc2.bias",
                 "recon.conv.weight"):
        value = params[name].data.reshape(-1)[0]
        # a point at the base value re-runs the owning stage and the rest
        assert forward(changed=name, points=[(0, value)] * 3) == pytest.approx(
            [base] * 3, rel=1e-12, abs=1e-15), name


def test_grad_check_workers_agree_and_report_failures():
    want = grad_check(_pointwise_builder, seed=5)
    assert grad_check(_pointwise_builder, seed=5, workers=2) == want
    assert grad_check(_pointwise_builder, seed=5, workers=3) == want
    # entry 1 is dealt to worker 1 of 2, a separate process
    with pytest.raises(RuntimeError, match="entry under test"):
        grad_check(functools.partial(_pointwise_builder, fail_at=1), seed=5, workers=2)
    with pytest.raises(ValueError):
        grad_check(_pointwise_builder, seed=5, workers=0)


def test_sigmoid_chain_grad():
    def builder(seed):
        rng = np.random.default_rng(seed)
        p = {"x": parameter(rng.standard_normal((3, 4)), "x")}

        def forward():
            return mean_all(sigmoid(mul(p["x"], p["x"])))

        return p, forward

    assert grad_check(builder, seed=3) < 1e-6
