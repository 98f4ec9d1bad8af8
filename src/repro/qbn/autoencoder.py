"""The quantized-bottleneck auto-encoder used for observations and hidden states.

A :class:`QuantizedBottleneckNetwork` forward is one autograd node over
one numpy pass: ``Linear -> tanh -> Linear -> tanh -> quantize ->
Linear -> tanh -> Linear``, each ``Linear`` evaluated as the layer
evaluates it (:func:`~repro.nn.linear.matmul_np`, then the bias).  Its
backward replays the op-by-op graph's float operations and summation
order, layer by layer from the output: bias, input, weight of
``decoder_output``; tanh; ``decoder_hidden``; the straight-through
quantiser (the gradient passes unchanged); tanh; ``encoder_latent``;
tanh; ``encoder_hidden``.  A trained weight therefore has the bits it
would have had through the eight-node chain, which
``tests/test_nn_gru.py::TestFusedQBNBitwise`` holds as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError, ShapeError
from repro.nn import Linear, Module
from repro.nn.linear import input_grad, matmul_np, weight_grad
from repro.qbn.quantize import nearest_level_indices, quantization_levels
from repro.utils.rng import SeedLike, new_rng


def _affine(a: np.ndarray, layer: Linear) -> np.ndarray:
    """``layer``'s forward on a plain array (``a W``, then ``+ b``)."""
    return matmul_np(a, layer.weight.data) + layer.bias.data


@dataclass(frozen=True)
class QBNConfig:
    """Shape of a quantized bottleneck network.

    The paper uses ``quantization_levels`` k = 3 and ``latent_dim`` L = 64
    (Section 4.2); smaller latent sizes produce coarser, smaller FSMs and
    are used by the scaled-down benchmarks.
    """

    input_dim: int
    latent_dim: int = 64
    hidden_dim: int = 64
    quantization_levels: int = 3

    def __post_init__(self) -> None:
        if self.input_dim <= 0 or self.latent_dim <= 0 or self.hidden_dim <= 0:
            raise ConfigurationError("QBN dimensions must be positive")
        if self.quantization_levels < 2:
            raise ConfigurationError("quantization_levels must be at least 2")


class QuantizedBottleneckNetwork(Module):
    """Auto-encoder with a k-level quantised latent code.

    ``forward`` is the differentiable reconstruction; ``encode`` (the
    quantised latent), ``decode``, ``reconstruct`` and ``discrete_code``
    (the integer level indices used as the discrete identity of an
    observation or hidden state) build no graph.
    """

    def __init__(self, config: QBNConfig, rng: SeedLike = None) -> None:
        super().__init__()
        self.config = config
        rng = new_rng(rng)
        self.encoder_hidden = Linear(config.input_dim, config.hidden_dim, rng=rng)
        self.encoder_latent = Linear(config.hidden_dim, config.latent_dim, rng=rng)
        self.decoder_hidden = Linear(config.latent_dim, config.hidden_dim, rng=rng)
        self.decoder_output = Linear(config.hidden_dim, config.input_dim, rng=rng)

    # ------------------------------------------------------------------
    # Differentiable path
    # ------------------------------------------------------------------
    def _encode_np(self, x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tanh hidden, tanh latent, nearest-level indices)`` of ``x``."""
        x = Tensor(x).data
        if x.shape[-1] != self.config.input_dim:
            raise ShapeError(
                f"QBN expected last dim {self.config.input_dim}, got input shape {x.shape}"
            )
        hidden = np.tanh(_affine(x, self.encoder_hidden))
        latent = np.tanh(_affine(hidden, self.encoder_latent))
        k = self.config.quantization_levels
        return hidden, latent, nearest_level_indices(np.clip(latent, -1.0, 1.0), k)

    def _decode_np(self, code: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(tanh hidden, reconstruction)`` of a quantised latent."""
        hidden = np.tanh(_affine(code, self.decoder_hidden))
        return hidden, _affine(hidden, self.decoder_output)

    def forward(self, x: Tensor) -> Tensor:
        """Reconstruction of ``x`` through the quantised bottleneck (one node)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        layers = (self.encoder_hidden, self.encoder_latent, self.decoder_hidden, self.decoder_output)
        encoder_hidden, latent, indices = self._encode_np(x)
        code = quantization_levels(self.config.quantization_levels)[indices]
        decoder_hidden, data = self._decode_np(code)

        def backward(grad: np.ndarray) -> None:
            inputs = (x.data, encoder_hidden, code, decoder_hidden)
            # A layer's input takes a gradient when anything before it does.
            needs = [x.requires_grad]
            for layer in layers[:-1]:
                needs.append(needs[-1] or layer.weight.requires_grad or layer.bias.requires_grad)
            for i in range(3, -1, -1):
                layer = layers[i]
                if layer.bias.requires_grad:
                    layer.bias._accumulate(grad)
                below = input_grad(grad, layer.weight.data) if needs[i] else None
                if layer.weight.requires_grad:
                    layer.weight._accumulate(weight_grad(inputs[i], grad))
                if below is None:
                    return
                # Layers 1..3 read a tanh output (layer 2 through the
                # straight-through quantiser, which passes ``below`` on).
                tanh_output = (encoder_hidden, latent, decoder_hidden)[i - 1]
                grad = below * (1.0 - tanh_output ** 2) if i else below
            x._accumulate(grad)

        parents = (x,) + tuple(p for layer in layers for p in (layer.weight, layer.bias))
        return Tensor._make(data, parents, backward)

    # ------------------------------------------------------------------
    # Inference helpers (the same numpy pass, no graph)
    # ------------------------------------------------------------------
    def encode(self, x) -> Tensor:
        """Quantised latent code of ``x`` (values in the k-level alphabet)."""
        return Tensor(quantization_levels(self.config.quantization_levels)[self._encode_np(x)[2]])

    def decode(self, latent) -> Tensor:
        """Reconstruction from a quantised latent."""
        return Tensor(self._decode_np(Tensor(latent).data)[1])

    def discrete_code(self, x: np.ndarray) -> np.ndarray:
        """Integer code (level indices, shape (..., latent_dim)) of ``x``."""
        return self._encode_np(x)[2].astype(np.int64, copy=False)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """Numpy reconstruction (no gradient tracking)."""
        return self._decode_np(self.encode(x).data)[1]

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Mean squared reconstruction error over a batch."""
        x = np.asarray(x, dtype=float)
        recon = self.reconstruct(x)
        return float(np.mean((recon - x) ** 2))


def build_observation_qbn(
    observation_dim: int,
    latent_dim: int = 16,
    hidden_dim: int = 64,
    quantization_levels: int = 3,
    rng: SeedLike = None,
) -> QuantizedBottleneckNetwork:
    """Convenience constructor for the observation (OX) QBN."""
    config = QBNConfig(
        input_dim=observation_dim,
        latent_dim=latent_dim,
        hidden_dim=hidden_dim,
        quantization_levels=quantization_levels,
    )
    return QuantizedBottleneckNetwork(config, rng=rng)


def build_hidden_qbn(
    hidden_dim_of_policy: int,
    latent_dim: int = 16,
    hidden_dim: int = 64,
    quantization_levels: int = 3,
    rng: SeedLike = None,
) -> QuantizedBottleneckNetwork:
    """Convenience constructor for the hidden-state (HX) QBN."""
    config = QBNConfig(
        input_dim=hidden_dim_of_policy,
        latent_dim=latent_dim,
        hidden_dim=hidden_dim,
        quantization_levels=quantization_levels,
    )
    return QuantizedBottleneckNetwork(config, rng=rng)
