"""Finite-difference gradient checking helpers shared by the AE tests.

Comparisons use |fd - g| <= rtol * max(|fd|, |g|) + atol. The absolute term
only absorbs floating-point noise on mathematically zero gradients; any real
gradient in these models is orders of magnitude above it.
"""

import numpy as np

RTOL = 1e-4
ATOL = 1e-12
H = 1e-3


def central_diff(loss, flat, i, h=H):
    orig = flat[i]
    flat[i] = orig + h
    lp = loss()
    flat[i] = orig - h
    lm = loss()
    flat[i] = orig
    return (lp - lm) / (2.0 * h)


def richardson_diff(loss, flat, i, h=H, depth=0):
    """Sixth-order estimate from central differences at h, h/2, and h/4.

    Plain central differences at h=1e-3 carry O(h^2) truncation above the
    1e-4 relative target on deep compositions; two Richardson levels remove
    it while keeping the oracle derivative-free and the base step at h.
    Disagreement between the two fourth-order levels flags points where the
    expansion is unreliable (an ELU kink inside the stencil, or curvature
    huge relative to the gradient); those recurse with a four-times smaller
    base step, at most twice.
    """
    d1 = central_diff(loss, flat, i, h)
    d2 = central_diff(loss, flat, i, h / 2.0)
    d3 = central_diff(loss, flat, i, h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    if depth < 2 and abs(r2 - r1) > 1e-5 * max(abs(r1), abs(r2), 1e-10):
        return richardson_diff(loss, flat, i, h / 4.0, depth + 1)
    return (16.0 * r2 - r1) / 15.0


def assert_grad_close(fd, g, context=""):
    err = abs(fd - g)
    bound = RTOL * max(abs(fd), abs(g)) + ATOL
    assert err <= bound, f"{context}: fd={fd:.6e} analytic={g:.6e} err={err:.3e}"


def check_layer_gradients(layer, x, train=True, input_stride=1):
    """Exhaustive parameter check plus strided input check for one layer,
    against Richardson differences: a block composes a convolution, batch
    norm and ELU, whose curvature plain central differences at ``H`` do not
    resolve to ``RTOL``."""
    rng = np.random.default_rng(99)
    y = layer.forward(x, train=train)
    target = rng.standard_normal(y.shape)

    def loss():
        out = layer.forward(x, train=train)
        return float(np.mean((out - target) ** 2))

    y = layer.forward(x, train=train)
    dy = 2.0 * (y - target) / y.size
    dx = layer.backward(dy)

    for name, p in layer.params.items():
        g = layer.grads[name]
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            fd = richardson_diff(loss, flat_p, i)
            assert_grad_close(fd, flat_g[i], f"{type(layer).__name__}.{name}[{i}]")

    layer.forward(x, train=train)
    layer.backward(dy)
    flat_x, flat_dx = x.ravel(), dx.ravel()
    for i in range(0, flat_x.size, input_stride):
        fd = richardson_diff(loss, flat_x, i)
        assert_grad_close(fd, flat_dx[i], f"{type(layer).__name__}.input[{i}]")


def train_forward(model, x):
    """The model's training pass on ``x``, as ``loss_and_grads`` runs it:
    every layer in train mode, which moves batch norm's running statistics,
    so the model's inference plan is dropped."""
    model._plan = None
    for layer in model.encoder + model.decoder:
        x = layer.forward(x, train=True)
    return x


def check_model_gradients(model, x, n_per_tensor=8, seed=1234):
    """Seeded component sample over every parameter tensor of a model."""
    rng = np.random.default_rng(seed)

    def loss():
        y = train_forward(model, x)
        d = y - x
        return float(np.mean(d * d))

    _, grads = model.loss_and_grads(x)
    worst = 0.0
    for (name, p), g in zip(model.parameters(), grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        count = min(n_per_tensor, flat_p.size)
        for i in rng.choice(flat_p.size, size=count, replace=False):
            fd = richardson_diff(loss, flat_p, i)
            assert_grad_close(fd, flat_g[i], f"{name}[{i}]")
            # same normalization as the bound: the atol floor only matters
            # for mathematically zero gradients
            denom = max(abs(fd), abs(flat_g[i])) + ATOL / RTOL
            worst = max(worst, abs(fd - flat_g[i]) / denom)
    return worst
