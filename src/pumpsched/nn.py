"""Minimal dense network with explicit backprop, plus Adam.

Kept deliberately small: tanh hidden layers, linear output, float64
throughout. Gradients are exercised against central finite differences in the
test suite, so the backward pass is written for clarity over cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched forward pass; returns output and per-layer activations.

        Features lie along the last axis; leading axes stack separate products.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.weights[0].shape[0]:
            raise ValidationError(
                f"input width {x.shape[-1]} does not match network input "
                f"{self.weights[0].shape[0]}"
            )
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else np.tanh(z)
            activations.append(h)
        return h, activations

    def backward(
        self, activations: list[np.ndarray], grad_out: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradient of sum(grad_out * output) w.r.t. weights and biases."""
        grad = np.atleast_2d(np.asarray(grad_out, dtype=float))
        grad_w = [np.empty_like(w) for w in self.weights]
        grad_b = [np.empty_like(b) for b in self.biases]
        for i in range(len(self.weights) - 1, -1, -1):
            h_in = activations[i]
            grad_w[i] = h_in.T @ grad
            grad_b[i] = grad.sum(axis=0)
            if i > 0:
                # Route through the tanh of the previous hidden layer.
                grad = (grad @ self.weights[i].T) * (1.0 - activations[i] ** 2)
        return grad_w, grad_b


class Adam:
    """Standard Adam over a list of parameter arrays."""

    def __init__(
        self,
        shapes: list[tuple[int, ...]],
        lr: float = 3e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(
        self, params: list[np.ndarray], grads: list[np.ndarray]
    ) -> list[np.ndarray]:
        """One update; returns new arrays, never mutating the inputs."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValidationError("parameter/gradient count mismatch")
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out
