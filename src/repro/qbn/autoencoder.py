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

A forward that builds a graph, and its backward, run their elementwise
work in C (``repro/nn/_dense_kernel.c``, the :mod:`repro.native`
kernel ``"dense"``) when it is ready:
the bias adds into numpy's fresh products, the quantiser, each
``below * (1.0 - t ** 2)`` and each bias's sum over rows.  Every gemm
and ``tanh`` stays numpy's, on the same operands.  The numpy code here
(``_affine`` and ``nearest_level_indices`` forward, ``_through_tanh``
backward) is the kernel's specification and the no-compiler path, and
what ``discrete_code`` always runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.errors import ConfigurationError, ShapeError
from repro.nn import Linear, Module
from repro.native import kernel as native_kernel
from repro.nn.dense_native import NativeDenseKernel
from repro.nn.linear import input_grad, matmul_np, weight_grad
from repro.qbn.quantize import nearest_level_indices, quantization_levels
from repro.utils.rng import SeedLike, new_rng


def _affine(a: np.ndarray, layer: Linear, kernel: Optional[NativeDenseKernel] = None) -> np.ndarray:
    """``layer``'s forward on a plain array (``a W``, then ``+ b``)."""
    product = matmul_np(a, layer.weight.data)
    if kernel is not None and kernel.add_bias(product, layer.bias.data):
        return product
    return product + layer.bias.data


def _tanh_affine(a: np.ndarray, layer: Linear, kernel: Optional[NativeDenseKernel] = None) -> np.ndarray:
    """``tanh`` of ``layer``'s forward, in place in the new array."""
    out = _affine(a, layer, kernel)
    return np.tanh(out, out=out)


def _through_tanh(
    kernel: Optional[NativeDenseKernel],
    below: np.ndarray,
    tanh_output: Optional[np.ndarray],
    bias: Tensor,
) -> np.ndarray:
    """The gradient of the layer under ``tanh_output`` from ``below``, the
    gradient of that output (``below`` itself when there is no tanh), with
    ``bias``'s share summed in.  ``below`` is a new array; the kernel
    writes the product into it."""
    grad = None if kernel is None else kernel.tanh_backward(below, tanh_output, bias)
    if grad is not None:
        return grad
    grad = below if tanh_output is None else below * (1.0 - tanh_output ** 2)
    if bias.requires_grad:
        bias._accumulate(grad)
    return grad


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

    ``forward`` is the differentiable reconstruction; ``discrete_code``
    (the integer level indices used as the discrete identity of an
    observation or hidden state) builds no graph.
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
    def _encode_np(
        self, x, kernel: Optional[NativeDenseKernel] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(tanh hidden, tanh latent)`` of ``x``."""
        x = Tensor(x).data
        if x.shape[-1] != self.config.input_dim:
            raise ShapeError(
                f"QBN expected last dim {self.config.input_dim}, got input shape {x.shape}"
            )
        hidden = _tanh_affine(x, self.encoder_hidden, kernel)
        return hidden, _tanh_affine(hidden, self.encoder_latent, kernel)

    def _level_indices(self, latent: np.ndarray) -> np.ndarray:
        """Index of the level nearest each clipped latent entry."""
        return nearest_level_indices(np.clip(latent, -1.0, 1.0), self.config.quantization_levels)

    def _decode_np(
        self, code: np.ndarray, kernel: Optional[NativeDenseKernel] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(tanh hidden, reconstruction)`` of a quantised latent."""
        hidden = _tanh_affine(code, self.decoder_hidden, kernel)
        return hidden, _affine(hidden, self.decoder_output, kernel)

    def forward(self, x: Tensor) -> Tensor:
        """Reconstruction of ``x`` through the quantised bottleneck (one node)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        layers = (self.encoder_hidden, self.encoder_latent, self.decoder_hidden, self.decoder_output)
        parents = (x,) + tuple(p for layer in layers for p in (layer.weight, layer.bias))
        kernel = None
        if x.ndim <= 2 and is_grad_enabled() and any(p.requires_grad for p in parents):
            kernel = native_kernel("dense")
        encoder_hidden, latent = self._encode_np(x, kernel)
        levels = quantization_levels(self.config.quantization_levels)
        if kernel is None:
            code = levels[self._level_indices(latent)]
        else:
            code = kernel.quantize(latent, levels)[1]
        decoder_hidden, data = self._decode_np(code, kernel)

        def backward(grad: np.ndarray) -> None:
            inputs = (x.data, encoder_hidden, code, decoder_hidden)
            # Layer i reads tanh_outputs[i] (layer 2 through the
            # straight-through quantiser, which passes its gradient on).
            tanh_outputs = (None, encoder_hidden, latent, decoder_hidden)
            # A layer's input takes a gradient when anything before it does.
            needs = [x.requires_grad]
            for layer in layers[:-1]:
                needs.append(needs[-1] or layer.weight.requires_grad or layer.bias.requires_grad)
            grad = _through_tanh(kernel, grad, None, layers[3].bias)
            for i in range(3, -1, -1):
                weight = layers[i].weight
                below = input_grad(grad, weight.data) if needs[i] else None
                if weight.requires_grad:
                    weight._adopt(weight_grad(inputs[i], grad))
                if below is None:
                    return
                if i:
                    grad = _through_tanh(kernel, below, tanh_outputs[i], layers[i - 1].bias)
            x._adopt(below)

        return Tensor._make(data, parents, backward)

    # ------------------------------------------------------------------
    # Inference helper (the same numpy pass, no graph)
    # ------------------------------------------------------------------
    def discrete_code(self, x: np.ndarray) -> np.ndarray:
        """Integer code (level indices, shape (..., latent_dim)) of ``x``."""
        return self._level_indices(self._encode_np(x)[1]).astype(np.int64, copy=False)


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
