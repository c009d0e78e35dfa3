"""One dense softmax classifier with explicit, checkable gradients.

Softmax regression is its case without a hidden layer, the MLP its case
with one. Both expose three functions over a flat weight vector: ``init``
-> w0, ``loss_and_grad`` -> (mean cross-entropy, flat gradient),
``predict`` -> labels. Keeping parameters flat makes the federated
aggregation arithmetic a plain vector expression.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Model", "build_model", "mlp_one_hidden", "multinomial_logistic"]


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


def _dense(name: str, widths: Sequence[int]) -> Model:
    """Fully connected softmax classifier with rectified hidden layers.

    ``widths`` runs from the input features to the classes; the flat vector
    holds each layer's weight matrix, then its bias. Init is all zeros
    without a hidden layer; with one, each weight matrix is He-initialized
    in layer order and a generator is required.
    """
    shapes = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    bounds = np.cumsum([0] + [int(np.prod(s)) for s in shapes]).tolist()
    n_params = bounds[-1]

    def unpack(w):
        parts = [w[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes)]
        return list(zip(parts[::2], parts[1::2]))

    def forward(w, x):
        """Layers, the input to each layer, and the logits."""
        layers = unpack(w)
        inputs = [x]
        for weight, bias in layers[:-1]:
            inputs.append(np.maximum(inputs[-1] @ weight + bias, 0.0))
        weight, bias = layers[-1]
        return layers, inputs, inputs[-1] @ weight + bias

    def init(rng=None) -> np.ndarray:
        out = np.zeros(n_params)
        if len(widths) == 2:
            return out
        if rng is None:
            raise ValueError("the hidden-layer model needs a generator to init")
        for weight, _ in unpack(out):
            weight[:] = rng.normal(0.0, np.sqrt(2.0 / weight.shape[0]), weight.shape)
        return out

    def loss_and_grad(w, x, y):
        layers, inputs, logits = forward(w, x)
        logp = _log_softmax(logits)
        n = x.shape[0]
        loss = -float(logp[np.arange(n), y].mean())
        delta = np.exp(logp)
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grad = np.empty_like(w)
        grads = unpack(grad)
        for i in reversed(range(len(layers))):
            grads[i][0][:] = inputs[i].T @ delta
            grads[i][1][:] = delta.sum(axis=0)
            if i:  # a ReLU output is positive exactly where its input is
                delta = (delta @ layers[i][0].T) * (inputs[i] > 0.0)
        return loss, grad

    def predict(w, x):
        return np.argmax(forward(w, x)[2], axis=1)

    return Model(
        name=name,
        n_features=widths[0],
        n_classes=widths[-1],
        n_params=n_params,
        init=init,
        loss_and_grad=loss_and_grad,
        predict=predict,
    )


def multinomial_logistic(n_features: int, n_classes: int) -> Model:
    """Softmax regression with bias; zero init gives loss ln(n_classes)."""
    return _dense("multinomial-logistic", [n_features, n_classes])


def mlp_one_hidden(n_features: int, n_classes: int, n_hidden: int = 64) -> Model:
    """One rectified hidden layer; init requires a generator."""
    return _dense("mlp-1hidden", [n_features, n_hidden, n_classes])


def build_model(name: str, n_features: int, n_classes: int) -> Model:
    if name == "multinomial-logistic":
        return multinomial_logistic(n_features, n_classes)
    if name == "mlp-1hidden":
        return mlp_one_hidden(n_features, n_classes)
    raise ValueError(f"unknown model '{name}'")
