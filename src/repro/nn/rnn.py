"""Recurrent layers: a gated recurrent unit cell and a sequence wrapper.

The paper uses a GRU with 128 hidden nodes as the recurrent backbone of
the actor–critic network (Section 4.2).  The cell follows the standard
formulation:

    r_t = sigmoid(x_t W_xr + h_{t-1} W_hr + b_r)
    z_t = sigmoid(x_t W_xz + h_{t-1} W_hz + b_z)
    n_t = tanh   (x_t W_xn + r_t * (h_{t-1} W_hn) + b_n)
    h_t = (1 - z_t) * n_t + z_t * h_{t-1}

One step is one autograd node.  Its forward evaluates the four lines
above with the numpy calls, in the order, that the same expression
written with ``Tensor`` operators makes (1-d rows through
``matmul_rows_np``, batches through ``@``), and its backward performs
the same float operations and sums into its operands in the order that
op-by-op graph's backward does.  With ``G`` the gradient of ``h_t``:

    candidate   b_n, x (W_xn), W_xn
    reset       b_r, x (W_xr), W_xr, h (W_hr), W_hr
    carried     h (W_hn), W_hn
    blend       dz = -(G * n_t) + G * h_{t-1};  h += G * z_t
    update      b_z, x (W_xz), W_xz, h (W_hz), W_hz

Float addition does not associate, so this order is a contract: it is
what makes every weight trained through the fused step byte-equal to
one trained through the ~26-node graph, and
``tests/test_nn_gru.py::TestFusedStepBitwise`` holds that graph as the
oracle (``np.array_equal`` on outputs and on every gradient).  A
reordering, a sequence-level node or weight gradients summed over time
by one gemm would all be faster and would all train different weights.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd.functional import matmul_rows_np
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn import init
from repro.nn.linear import matmul_backward, matmul_np
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, new_rng


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


class GRUCell(Module):
    """Single-step gated recurrent unit.

    :meth:`forward_np`, the inference step, is one numpy gate stack for
    every batch size and width: its only shape dispatch is
    :func:`matmul_rows_np`, it caches no weights, and its only state is
    the reused gate buffers.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: SeedLike = None) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ShapeError(
                f"GRUCell requires positive sizes, got input={input_size}, hidden={hidden_size}"
            )
        rng = new_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

        def input_weight() -> Parameter:
            return Parameter(init.xavier_uniform((input_size, hidden_size), rng))

        def hidden_weight() -> Parameter:
            return Parameter(init.orthogonal((hidden_size, hidden_size), rng=rng))

        self.w_xr = input_weight()
        self.w_hr = hidden_weight()
        self.b_r = Parameter(np.zeros(hidden_size))
        self.w_xz = input_weight()
        self.w_hz = hidden_weight()
        self.b_z = Parameter(np.zeros(hidden_size))
        self.w_xn = input_weight()
        self.w_hn = hidden_weight()
        self.b_n = Parameter(np.zeros(hidden_size))

    def initial_state(self, batch_size: Optional[int] = None) -> Tensor:
        """Return an all-zero hidden state (shape (H,) or (B, H))."""
        if batch_size is None:
            return Tensor(np.zeros(self.hidden_size))
        return Tensor(np.zeros((batch_size, self.hidden_size)))

    def forward(self, x: Tensor, h: Optional[Tensor] = None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.shape[-1] != self.input_size:
            raise ShapeError(
                f"GRUCell expected input dim {self.input_size}, got shape {x.shape}"
            )
        if h is None:
            h = self.initial_state(None if x.ndim == 1 else x.shape[0])
        elif not isinstance(h, Tensor):
            h = Tensor(h)
        if h.shape[-1] != self.hidden_size:
            raise ShapeError(
                f"GRUCell expected hidden dim {self.hidden_size}, got shape {h.shape}"
            )

        w_xr, w_hr, b_r = self.w_xr, self.w_hr, self.b_r
        w_xz, w_hz, b_z = self.w_xz, self.w_hz, self.b_z
        w_xn, w_hn, b_n = self.w_xn, self.w_hn, self.b_n
        x_data, h_data = x.data, h.data

        reset = _sigmoid(matmul_np(x_data, w_xr.data) + matmul_np(h_data, w_hr.data) + b_r.data)
        update = _sigmoid(matmul_np(x_data, w_xz.data) + matmul_np(h_data, w_hz.data) + b_z.data)
        carried = matmul_np(h_data, w_hn.data)
        candidate = np.tanh(matmul_np(x_data, w_xn.data) + reset * carried + b_n.data)
        fresh = 1.0 - update
        data = fresh * candidate + update * h_data

        def backward(grad: np.ndarray) -> None:
            # Candidate branch, then the reset gate it reads, then the
            # update gate: the order of the module docstring.
            g_update = -(grad * candidate)
            g_n = grad * fresh * (1.0 - candidate ** 2)
            if b_n.requires_grad:
                b_n._accumulate(g_n)
            matmul_backward(x, w_xn, g_n)
            g_r = g_n * carried * reset * (1.0 - reset)
            if b_r.requires_grad:
                b_r._accumulate(g_r)
            matmul_backward(x, w_xr, g_r)
            matmul_backward(h, w_hr, g_r)
            matmul_backward(h, w_hn, g_n * reset)
            g_update += grad * h_data
            if h.requires_grad:
                h._accumulate(grad * update)
            g_z = g_update * update * (1.0 - update)
            if b_z.requires_grad:
                b_z._accumulate(g_z)
            matmul_backward(x, w_xz, g_z)
            matmul_backward(h, w_hz, g_z)

        parents = (x, h, w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, w_hn, b_n)
        return Tensor._make(data, parents, backward)

    def forward_np(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Inference-only batched step on plain arrays (no autograd graph).

        ``x`` is (B, input_size) and ``h`` is (B, hidden_size); returns the
        next hidden state (B, hidden_size).  All matmuls go through the
        batch-size-stable kernel, so row ``i`` of the result is
        bit-identical no matter how many other sequences share the batch —
        the invariant that makes vectorized rollouts reproduce sequential
        ones exactly.
        """
        if x.ndim != 2 or h.ndim != 2:
            raise ShapeError(
                f"forward_np expects (B, D) input and (B, H) hidden, got {x.shape} / {h.shape}"
            )
        # The one numpy gate stack: the formulas of the module docstring,
        # evaluated in place on gate buffers reused across calls.  Only
        # the returned hidden state is freshly allocated — it escapes to
        # callers.  Parameters are read at call time, so a rebound or
        # stepped weight is seen by the next call.
        batch = x.shape[0]
        buffers = getattr(self, "_np_gate_buffers", None)
        if buffers is None or buffers[0].shape[0] != batch:
            buffers = tuple(
                np.empty((batch, self.hidden_size)) for _ in range(4)
            )
            self._np_gate_buffers = buffers
        gate, carry, blend, scratch = buffers

        # reset gate -> `gate`
        matmul_rows_np(x, self.w_xr.data, out=gate)
        matmul_rows_np(h, self.w_hr.data, out=scratch)
        gate += scratch
        gate += self.b_r.data
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.divide(1.0, gate, out=gate)
        # candidate pre-activation -> `scratch` (needs the reset gate)
        matmul_rows_np(h, self.w_hn.data, out=carry)
        carry *= gate
        matmul_rows_np(x, self.w_xn.data, out=scratch)
        scratch += carry
        scratch += self.b_n.data
        np.tanh(scratch, out=scratch)
        # update gate -> `gate` (reset no longer needed)
        matmul_rows_np(x, self.w_xz.data, out=gate)
        matmul_rows_np(h, self.w_hz.data, out=carry)
        gate += carry
        gate += self.b_z.data
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.divide(1.0, gate, out=gate)
        # blend: (1 - z) * n + z * h, freshly allocated result
        np.subtract(1.0, gate, out=blend)
        blend *= scratch
        gate *= h
        return blend + gate

    def __getstate__(self):
        # The shape-keyed gate buffers are scratch: they rebuild on first
        # use after unpickling instead of crossing process boundaries.
        state = self.__dict__.copy()
        state.pop("_np_gate_buffers", None)
        return state


class GRU(Module):
    """Unrolls a :class:`GRUCell` over a sequence.

    Input shape is (T, input_size) for a single sequence or
    (T, B, input_size) for a batch of sequences; the output is the stack
    of hidden states with matching leading dimensions.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: SeedLike = None) -> None:
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def initial_state(self, batch_size: Optional[int] = None) -> Tensor:
        return self.cell.initial_state(batch_size)

    def forward(
        self, sequence: Tensor, h0: Optional[Tensor] = None
    ) -> Tuple[Tensor, Tensor]:
        """Return (all hidden states stacked over time, final hidden state)."""
        if not isinstance(sequence, Tensor):
            sequence = Tensor(sequence)
        if sequence.ndim not in (2, 3):
            raise ShapeError(
                f"GRU expects (T, D) or (T, B, D) input, got shape {sequence.shape}"
            )
        steps = sequence.shape[0]
        batch = sequence.shape[1] if sequence.ndim == 3 else None
        h = h0 if h0 is not None else self.initial_state(batch)
        outputs: List[Tensor] = []
        for t in range(steps):
            h = self.cell(sequence[t], h)
            outputs.append(h)
        stacked = Tensor.stack(outputs, axis=0)
        return stacked, h
