"""Flat-parameter classifiers with explicit, checkable gradients.

Both models expose the same three functions over a flat weight vector:
``init`` -> w0, ``loss_and_grad`` -> (mean cross-entropy, flat gradient),
``predict`` -> labels. Keeping parameters flat makes the federated
aggregation arithmetic a plain vector expression.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Model", "multinomial_logistic", "mlp_one_hidden"]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class Model:
    """A differentiable classifier over flat parameters."""

    name: str
    n_features: int
    n_classes: int
    n_params: int
    init: "callable"
    loss_and_grad: "callable"
    predict: "callable"


def multinomial_logistic(n_features: int, n_classes: int) -> Model:
    """Softmax regression with bias; zero init gives loss ln(n_classes)."""
    n_params = (n_features + 1) * n_classes

    def unpack(w):
        mat = w.reshape(n_features + 1, n_classes)
        return mat[:-1], mat[-1]

    def init(rng=None) -> np.ndarray:
        return np.zeros(n_params)

    def loss_and_grad(w, x, y):
        weight, bias = unpack(w)
        logits = x @ weight + bias
        logp = _log_softmax(logits)
        n = x.shape[0]
        loss = -float(logp[np.arange(n), y].mean())
        delta = np.exp(logp)
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grad = np.empty_like(w.reshape(n_features + 1, n_classes))
        grad[:-1] = x.T @ delta
        grad[-1] = delta.sum(axis=0)
        return loss, grad.ravel()

    def predict(w, x):
        weight, bias = unpack(w)
        return np.argmax(x @ weight + bias, axis=1)

    return Model(
        name="multinomial-logistic",
        n_features=n_features,
        n_classes=n_classes,
        n_params=n_params,
        init=init,
        loss_and_grad=loss_and_grad,
        predict=predict,
    )


def mlp_one_hidden(
    n_features: int, n_classes: int, n_hidden: int = 64
) -> Model:
    """One rectified hidden layer; init requires a generator."""
    shapes = [
        (n_features, n_hidden),
        (n_hidden,),
        (n_hidden, n_classes),
        (n_classes,),
    ]
    sizes = [int(np.prod(s)) for s in shapes]
    n_params = sum(sizes)
    bounds = np.cumsum([0] + sizes)

    def unpack(w):
        return [
            w[bounds[i] : bounds[i + 1]].reshape(shapes[i]) for i in range(4)
        ]

    def init(rng) -> np.ndarray:
        if rng is None:
            raise ValueError("the hidden-layer model needs a generator to init")
        w1 = rng.normal(0.0, np.sqrt(2.0 / n_features), shapes[0])
        w2 = rng.normal(0.0, np.sqrt(2.0 / n_hidden), shapes[2])
        out = np.zeros(n_params)
        parts = unpack(out)
        parts[0][:] = w1
        parts[2][:] = w2
        return out

    def loss_and_grad(w, x, y):
        w1, b1, w2, b2 = unpack(w)
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ w2 + b2
        logp = _log_softmax(logits)
        n = x.shape[0]
        loss = -float(logp[np.arange(n), y].mean())
        delta = np.exp(logp)
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grad = np.empty_like(w)
        g1, gb1, g2, gb2 = unpack(grad)
        g2[:] = hidden.T @ delta
        gb2[:] = delta.sum(axis=0)
        back = (delta @ w2.T) * (pre > 0.0)
        g1[:] = x.T @ back
        gb1[:] = back.sum(axis=0)
        return loss, grad

    def predict(w, x):
        w1, b1, w2, b2 = unpack(w)
        hidden = np.maximum(x @ w1 + b1, 0.0)
        return np.argmax(hidden @ w2 + b2, axis=1)

    return Model(
        name="mlp-1hidden",
        n_features=n_features,
        n_classes=n_classes,
        n_params=n_params,
        init=init,
        loss_and_grad=loss_and_grad,
        predict=predict,
    )


def build_model(name: str, n_features: int, n_classes: int) -> Model:
    if name == "multinomial-logistic":
        return multinomial_logistic(n_features, n_classes)
    if name == "mlp-1hidden":
        return mlp_one_hidden(n_features, n_classes)
    raise ValueError(f"unknown model '{name}'")
