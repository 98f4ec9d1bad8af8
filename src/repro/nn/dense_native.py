"""The strict-float C glue of a QBN training step and of Adam (``_dense_kernel.c``).

:class:`NativeDenseKernel` wraps the library, registered with
:mod:`repro.native` as ``"dense"``, which loads it at first use (the
first QBN forward that builds a graph, the first ``mse_loss`` backward or
the first Adam step) and checks it against the numpy code it replaces,
which stays the specification and the no-compiler path:

* ``QuantizedBottleneckNetwork.forward``'s bias adds and quantiser
  (numpy: ``matmul_np(a, w) + b`` and ``nearest_level_indices`` of the
  clipped latent), and its backward's ``below * (1.0 - t ** 2)`` products
  and bias sums (numpy: ``Tensor._accumulate``'s axis-0 sum);
* ``mse_loss``'s backward (numpy: ``c * d`` added to itself);
* ``Adam._apply`` (numpy: the flat pass over runs of parameters).

Every BLAS call and every ``tanh`` stays numpy's, on the same operand
shapes.  Ready or not, every array holds the same bytes
(``tests/test_nn_gru.py::TestNativeDenseKernelBitwise``).
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.native import _address, kernel as native_kernel, register

_VOID_P = ctypes.c_void_p
_INT64 = ctypes.c_int64
_FLOAT64 = np.dtype(np.float64)


def _writable_rows(array: np.ndarray) -> bool:
    return array.flags.c_contiguous and array.flags.writeable and array.dtype is _FLOAT64


class NativeDenseKernel:
    """ctypes wrapper for ``_dense_kernel.c``.

    Each method names the numpy expression whose bytes it writes.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        signatures = {
            "bias": [_VOID_P, _VOID_P, _INT64, _INT64],
            "quantize": [_VOID_P, _VOID_P, _INT64, _INT64, _VOID_P, _VOID_P],
            "backward": [_VOID_P, _VOID_P, _VOID_P, _INT64, _INT64],
            "mse_grad": [_VOID_P, _VOID_P, ctypes.c_double, _INT64],
            "adam": [_INT64, _VOID_P, _VOID_P, _VOID_P, _VOID_P, _VOID_P]
            + [ctypes.c_double] * 8,
        }
        for name, argtypes in signatures.items():
            entry = getattr(lib, f"repro_dense_{name}")
            entry.restype = None
            entry.argtypes = argtypes
        self._lib = lib
        # The last optimiser's pointers (see _AdamPointers).
        self._adam: Optional[_AdamPointers] = None

    def add_bias(self, product: np.ndarray, bias: np.ndarray) -> bool:
        """``product + bias``, written into ``product``, the new array
        ``matmul_np`` returned; ``False`` (nothing written) when the two do
        not fit the kernel."""
        bias = np.ascontiguousarray(bias, dtype=np.float64)
        if not _writable_rows(product) or bias.shape != product.shape[-1:]:
            return False
        width = bias.shape[0]
        self._lib.repro_dense_bias(
            _address(product), _address(bias), product.size // width, width
        )
        return True

    def quantize(self, values: np.ndarray, levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(index, levels[index])`` with ``index =
        nearest_level_indices(np.clip(values, -1.0, 1.0), k)``."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        levels = np.ascontiguousarray(levels, dtype=np.float64)
        index = np.empty(values.shape, dtype=np.int64)
        code = np.empty(values.shape)
        self._lib.repro_dense_quantize(
            _address(values), _address(levels), levels.size, values.size,
            _address(index), _address(code),
        )
        return index, code

    def tanh_backward(
        self, below: np.ndarray, tanh_output: Optional[np.ndarray], bias: Tensor
    ) -> Optional[np.ndarray]:
        """``below * (1.0 - tanh_output ** 2)`` (``below`` itself when there
        is no tanh), summed into ``bias`` as ``bias._accumulate`` sums it;
        ``None`` (nothing written) when the arrays do not fit the kernel.
        With a tanh, ``below`` is a new array and the product is formed in it."""
        below = np.ascontiguousarray(below, dtype=np.float64)
        if tanh_output is not None and not (
            _writable_rows(below) and _writable_rows(tanh_output)
            and tanh_output.shape == below.shape
        ):
            return None
        # numpy sums a width-1 column pairwise, and a 1-d row is its own
        # sum: both stay numpy's.
        sums = None
        if bias.requires_grad and below.ndim == 2 and below.shape[1] > 1:
            sums = np.empty(below.shape[1])
        if tanh_output is not None or sums is not None:
            width = below.shape[-1]
            self._lib.repro_dense_backward(
                _address(below),
                None if tanh_output is None else _address(tanh_output),
                None if sums is None else _address(sums),
                below.size // width,
                width,
            )
        if sums is not None:
            bias._adopt(sums)
        elif bias.requires_grad:
            bias._accumulate(below)
        return below

    def mse_grad(self, diff: np.ndarray, scale: float) -> np.ndarray:
        """``(scale * diff) + (scale * diff)`` as a new array."""
        diff = np.ascontiguousarray(diff, dtype=np.float64)
        out = np.empty(diff.shape)
        self._lib.repro_dense_mse_grad(_address(out), _address(diff), scale, diff.size)
        return out

    def adam(
        self,
        parameters: Sequence[Tensor],
        m: np.ndarray,
        v: np.ndarray,
        betas: Tuple[float, float],
        bias_corrections: Tuple[float, float],
        lr: float,
        eps: float,
    ) -> bool:
        """One step of ``Adam._apply``'s flat pass over ``parameters`` with
        moment buffers ``m`` and ``v``; ``False`` (nothing written) when a
        parameter's data cannot be written in place or the buffers do not
        fit the parameters."""
        pointers = self._adam
        if pointers is None or not pointers.serves(parameters, m, v):
            arrays = [param.data for param in parameters]
            if not (
                all(_writable_rows(array) for array in arrays)
                and m.size == v.size == sum(array.size for array in arrays)
            ):
                return False
            pointers = self._adam = _AdamPointers(parameters, m, v)
        # Contiguous float64 copies of the gradients that are not, alive
        # until the call returns.
        grads, copies = pointers.grads, []
        for index, param in enumerate(parameters):
            grad = param.grad
            if grad is None:
                grads[index] = None
                continue
            if not (grad.flags.c_contiguous and grad.dtype is _FLOAT64):
                grad = np.ascontiguousarray(grad, dtype=np.float64)
                copies.append(grad)
            if grad.size != pointers.sizes[index]:
                raise ShapeError(f"gradient {grad.shape} does not fit parameter {param.shape}")
            grads[index] = _address(grad)
        (beta1, beta2), (bias1, bias2) = betas, bias_corrections
        self._lib.repro_dense_adam(
            len(grads), pointers.data, grads, pointers.size_array, pointers.m, pointers.v,
            beta1, 1.0 - beta1, beta2, 1.0 - beta2, bias1, bias2, lr, eps,
        )
        return True


class _AdamPointers:
    """One optimiser's data, moment and size pointers, built once and
    reused while its parameters keep their arrays (Adam writes them in
    place), plus the per-step gradient pointer slots."""

    def __init__(self, parameters: Sequence[Tensor], m: np.ndarray, v: np.ndarray) -> None:
        self.arrays = [param.data for param in parameters]
        self.moments = (m, v)
        self.sizes = [array.size for array in self.arrays]
        self.size_array = (_INT64 * len(self.sizes))(*self.sizes)
        self.data = (_VOID_P * len(self.arrays))(*(_address(array) for array in self.arrays))
        self.grads = (_VOID_P * len(self.arrays))()
        self.m, self.v = _address(m), _address(v)

    def serves(self, parameters: Sequence[Tensor], m: np.ndarray, v: np.ndarray) -> bool:
        return (
            m is self.moments[0]
            and v is self.moments[1]
            and len(parameters) == len(self.arrays)
            and all(param.data is array for param, array in zip(parameters, self.arrays))
        )


# Values the quantiser treats specially: NaN, signed zeros, midpoints
# between levels and values the clip moves.
_QUANTIZER_PROBE = np.array(
    [np.nan, -0.0, 0.0, 0.5, -0.5, 2.0 / 3.0, -2.0 / 3.0, 1.0, -1.0, 1.5, -np.inf, np.inf]
)


def _self_check_runs() -> List[Optional[bytes]]:
    """Every output, loss, gradient, weight and moment of three QBN
    training steps (the second summing into the first's gradients, all
    under a negative loss scale) on 1-d rows on the einsum and gemm
    routes and batches of 1, 2 and 5, with a width-1 input, k = 2, 3 and
    4, a frozen weight and an input that takes a gradient; then the
    quantiser on :data:`_QUANTIZER_PROBE`."""
    from repro.autograd.functional import mse_loss
    from repro.optim import Adam
    from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork
    from repro.qbn.quantize import nearest_level_indices, quantization_levels

    rng = np.random.default_rng(4243)
    snapshots: List[Optional[bytes]] = []
    for input_dim, latent_dim, hidden_dim, levels, lead in (
        (9, 4, 6, 3, ()), (1, 9, 8, 2, ()), (9, 4, 6, 4, (1,)), (1, 3, 8, 3, (2,)),
        (12, 7, 9, 3, (5,)),
    ):
        config = QBNConfig(input_dim, latent_dim, hidden_dim, quantization_levels=levels)
        qbn = QuantizedBottleneckNetwork(config, rng=input_dim)
        for layer in (qbn.encoder_hidden, qbn.encoder_latent, qbn.decoder_hidden, qbn.decoder_output):
            layer.bias.data[...] = rng.standard_normal(layer.bias.shape) * 0.5
        qbn.encoder_latent.weight.requires_grad = latent_dim != 4
        optimizer = Adam(qbn.parameters(), lr=0.05)
        x = Tensor(rng.standard_normal(lead + (input_dim,)), requires_grad=latent_dim < 7)
        target = rng.standard_normal(x.shape)
        for step in range(3):
            if step != 1:
                optimizer.zero_grad()
            out = qbn(x)
            if step == 0:
                # An output column without error: under the negative scale
                # its gradient is -0.0, and the bias sums it from +0.0.
                target[..., 0] = out.data[..., 0]
            loss = mse_loss(out, target)
            (loss * -0.5).backward()
            optimizer.step()
            snapshots += [out.data.tobytes(), loss.data.tobytes()]
            snapshots += [optimizer._m.tobytes(), optimizer._v.tobytes()]
            for tensor in (x, *qbn.parameters()):
                snapshots.append(None if tensor.grad is None else tensor.grad.tobytes())
                snapshots.append(tensor.data.tobytes())
    kernel = native_kernel("dense")
    for k in (2, 3, 4):
        levels = quantization_levels(k)
        if kernel is None:
            index = nearest_level_indices(np.clip(_QUANTIZER_PROBE, -1.0, 1.0), k)
            code = levels[index]
        else:
            index, code = kernel.quantize(_QUANTIZER_PROBE, levels)
        snapshots += [index.astype(np.int64).tobytes(), code.tobytes()]
    return snapshots


register("dense", Path(__file__).with_name("_dense_kernel.c"), NativeDenseKernel, _self_check_runs)
