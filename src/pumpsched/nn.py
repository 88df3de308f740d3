"""Minimal dense network with explicit backprop, plus Adam.

Kept deliberately small: tanh hidden layers, linear output, float64
throughout. Gradients are exercised against central finite differences in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError


@dataclass
class MLP:
    """Fully connected net: weights[i] maps layer i activations to layer i+1."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(
        cls,
        sizes: tuple[int, ...],
        rng: np.random.Generator,
        out_scale: float = 1.0,
        out_bias: float = 0.0,
    ) -> "MLP":
        """Xavier-style init; the output layer can be scaled down and biased."""
        if len(sizes) < 2:
            raise ValidationError("an MLP needs at least input and output sizes")
        weights, biases = [], []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            w = rng.standard_normal((fan_in, fan_out)) * scale
            b = np.zeros(fan_out)
            if i == len(sizes) - 2:
                w *= out_scale
                b += out_bias
            weights.append(w)
            biases.append(b)
        return cls(weights=weights, biases=biases)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def forward(
        self, x: np.ndarray, out: list[np.ndarray] | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched forward pass; returns output and per-layer activations.

        Features lie along the last axis; leading axes stack separate products.
        ``out`` holds one array per layer, shaped like that layer's output, and
        the activations after the input are written into it; without it they
        are allocated. The arithmetic, and so every byte, is the same.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.weights[0].shape[0]:
            raise ValidationError(
                f"input width {x.shape[-1]} does not match network input "
                f"{self.weights[0].shape[0]}"
            )
        if out is None:
            out = [np.empty((*x.shape[:-1], w.shape[1])) for w in self.weights]
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b, z) in enumerate(zip(self.weights, self.biases, out)):
            h = np.matmul(h, w, out=z)
            h += b
            if i < last:
                np.tanh(h, out=h)
            activations.append(h)
        return h, activations

    def backward(
        self,
        activations: list[np.ndarray],
        grad_out: np.ndarray,
        out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
        scratch: list[np.ndarray] | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradient of sum(grad_out * output) w.r.t. weights and biases.

        ``out``, a pair of lists shaped like ``weights`` and ``biases``,
        receives the gradients, and ``scratch`` holds a ``(2, *shape)`` array
        for each hidden activation's shape, where the gradient is routed back
        through that layer's tanh. Either is allocated when not given; the
        arithmetic, and so every byte, is the same.
        """
        grad = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if out is None:
            out = (
                [np.empty_like(w) for w in self.weights],
                [np.empty_like(b) for b in self.biases],
            )
        if scratch is None:
            scratch = [np.empty((2, *a.shape)) for a in activations[1:-1]]
        grad_w, grad_b = out
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, grad, out=grad_w[i])
            np.add.reduce(grad, axis=0, out=grad_b[i])  # sum, minus its wrapper
            if i > 0:
                # Route through the tanh of the previous hidden layer:
                # (grad @ W.T) * (1 - h**2).
                routed, slope = scratch[i - 1]
                np.matmul(grad, self.weights[i].T, out=routed)
                np.subtract(1.0, np.square(activations[i], out=slope), out=slope)
                grad = np.multiply(routed, slope, out=routed)
        return grad_w, grad_b


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with the moment decays and epsilon of Kingma and Ba (arXiv
    1412.6980), over one parameter vector of ``size`` entries. The moments
    ``m`` and ``v`` live across steps, and each step updates them and the
    vector in place."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m, self.v, self._a, self._r = np.zeros((4, size))  # _a, _r: scratch

    def step(self, vector: np.ndarray, grad: np.ndarray) -> None:
        """One update of ``vector`` in place, ``vector -= update``; ``grad``
        is left as it was. A non-finite gradient anywhere raises before the
        moments or ``vector`` change."""
        if vector.shape != self.m.shape or grad.shape != self.m.shape:
            raise ValidationError("parameter/gradient size mismatch")
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient during update")
        g, a, r, m, v = grad, self._a, self._r, self.m, self.v
        self.t += 1
        m *= ADAM_BETA1  # m = b1*m + (1-b1)*g
        m += np.multiply(g, 1 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2  # v = b2*v + ((1-b2)*g)*g
        v += np.multiply(np.multiply(g, 1 - ADAM_BETA2, out=a), g, out=a)
        # (lr*m_hat) / (sqrt(v_hat)+eps)
        np.multiply(np.divide(m, 1 - ADAM_BETA1**self.t, out=a), self.lr, out=a)
        root = np.sqrt(np.divide(v, 1 - ADAM_BETA2**self.t, out=r), out=r)
        a /= np.add(root, ADAM_EPS, out=root)
        vector -= a
