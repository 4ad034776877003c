"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np


BETA1, BETA2, EPS = 0.9, 0.999, 1e-7


class Adam:
    """Standard Adam with beta1 0.9, beta2 0.999 and eps 1e-7; moments are
    kept per parameter tensor."""

    def __init__(self, lr=5e-5):
        self.lr = lr
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update parameter arrays in place from aligned gradients."""
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            size = max(p.size for p in params)
            self._scratch = (np.empty(size), np.empty(size))
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment updates,
        # in that operation order, in two scratch arrays shared by the tensors.
        for p, g, m, v in zip(params, grads, self.m, self.v):
            s, u = (buf[: p.size].reshape(p.shape) for buf in self._scratch)
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            np.divide(m, bc1, out=u)
            u *= self.lr
            u /= s
            p -= u

