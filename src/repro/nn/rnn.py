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
oracle (``np.array_equal`` on outputs and on every gradient).

No training path in the library builds a graph through that step: BC
and A2C train through the sequence node below, and the QBN trainer's
action term reads only ``policy_head``.  Two callers keep it:
``RecurrentPolicyValueNet.step``, the chain that ``TestSequenceNodeBitwise``
and the tests' ``op_by_op()`` hold every sequence node to, and
``QBNTrainer.action_agreement``'s no-grad forward through ``policy.gru``.

A whole sequence is one node too (:class:`Unrolled`, behind
:class:`GRU` and ``RecurrentPolicyValueNet.unroll``).  Its backward runs
steps ``T .. 1``, each ``h_t`` gradient the outside contribution plus
step ``t + 1``'s four terms, so the gate gradients and the gradients of
the inputs and ``h0`` hold the per-step chain's bytes.  Each parameter's
gradient is one sum over every step and row instead
(:func:`~repro.nn.linear.accumulate_steps`: one gemm per weight, one
``sum`` per bias), not the chain's one term per step: it is within
rounding of the chain's, and every build makes that same numpy call
(``TestSequenceNodeBitwise``).

A cell keeps its three input weights and its three hidden weights as
views into two ``(3, ., H)`` stacks, gate order r, n, z, and every
product it would make once per gate is one stacked ``np.matmul`` over a
stack: :meth:`GRUCell.forward_np`'s six products as two, an
:class:`Unrolled`'s input projections, and the native kernel's hidden
products and ``g @ W.T`` terms per step.  numpy makes the same 2-d BLAS
call for every stack element that the lone product makes, so each gate
keeps its bytes (``TestStackedGatesBitwise``); the einsum route below
seven columns runs once per element.  Adam and ``load_state_dict``
write the views in place; unpickling, or a rebound ``.data``, links
them again.

The per-step elementwise work of that node runs in C
(``_gru_kernel.c``, :class:`NativeGRUKernel`, registered with
:mod:`repro.native` as ``"gru"``) when it is ready: the gate arithmetic around
numpy's hidden projections, ``exp`` and ``tanh`` forward, and the sum
into ``h``'s gradient and the gate gradients backward.  Its
specification is the numpy loop (``Unrolled._forward_numpy`` and
``Unrolled._backward_numpy``), which runs when the kernel cannot: every
BLAS call, ``exp`` and ``tanh`` is numpy's either way, on the same
operand shapes, and the kernel is checked against the loop on every
route when it first loads (``TestNativeGRUKernelBitwise``).
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.autograd.functional import _GEMM_MIN_COLS, matmul_rows_np
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.native import _address, kernel as native_kernel, register
from repro.nn import init
from repro.nn.linear import (
    accumulate_steps, input_grad, input_grad_steps, matmul_backward, matmul_np, matmul_steps,
)
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, new_rng


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


class GRUCell(Module):
    """Single-step gated recurrent unit.

    :meth:`forward_np`, the inference step, is one numpy gate stack for
    every batch size and width: its only shape dispatch is
    :func:`matmul_rows_np`, it caches no weights, and its only state is
    the reused gate buffers.  The six weights are views into two stacks
    (module docstring, :meth:`_link`).
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
        self._link()

    def _gate_weights(self) -> Tuple[Tuple[Parameter, ...], Tuple[Parameter, ...]]:
        return (self.w_xr, self.w_xn, self.w_xz), (self.w_hr, self.w_hn, self.w_hz)

    def _link(self) -> None:
        """Copy the input and the hidden weights into one ``(3, ., H)`` stack
        each, gate order r, n, z, and make every weight's ``.data`` its
        view of its stack."""
        stacks = []
        for weights in self._gate_weights():
            stack = np.stack([weight.data for weight in weights])
            for weight, view in zip(weights, stack):
                weight.data = view
            stacks.append(stack)
        self._weight_stacks = tuple(stacks)

    def _stacks(self) -> Tuple[np.ndarray, np.ndarray]:
        """The input and hidden weight stacks, linked again first if a
        weight's ``.data`` was rebound rather than written in place."""
        stacks = self._weight_stacks
        for stack, weights in zip(stacks, self._gate_weights()):
            for weight in weights:
                if weight.data.base is not stack:
                    self._link()
                    return self._weight_stacks
        return stacks

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
        projections = (matmul_np(x_data, w.data) for w in (w_xr, w_xz, w_xn))
        reset, update, carried, candidate, data = self._step(*projections, h_data)
        fresh = 1.0 - update

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

    def _step(self, x_r, x_z, x_n, h) -> Tuple[np.ndarray, ...]:
        """The module docstring's formulas given the input projections
        ``x W_x{r,z,n}``: ``(reset, update, carried, candidate, h_t)``."""
        reset = _sigmoid(x_r + matmul_np(h, self.w_hr.data) + self.b_r.data)
        update = _sigmoid(x_z + matmul_np(h, self.w_hz.data) + self.b_z.data)
        carried = matmul_np(h, self.w_hn.data)
        candidate = np.tanh(x_n + reset * carried + self.b_n.data)
        return reset, update, carried, candidate, (1.0 - update) * candidate + update * h

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
        if buffers is None or buffers.shape[2] < batch:
            # Grow-only: a smaller batch works in the first rows.
            buffers = np.empty((2, 3, batch, self.hidden_size))
            self._np_gate_buffers = buffers
        inputs, hiddens = buffers[:, :, :batch]
        input_weights, hidden_weights = self._stacks()
        matmul_rows_np(x, input_weights, out=inputs)
        matmul_rows_np(h, hidden_weights, out=hiddens)
        reset, candidate, update = inputs
        scratch, carried, hidden_update = hiddens

        # reset gate: (x W_xr + h W_hr) + b_r
        reset += scratch
        reset += self.b_r.data
        np.negative(reset, out=reset)
        np.exp(reset, out=reset)
        reset += 1.0
        np.divide(1.0, reset, out=reset)
        # candidate: (x W_xn + r * (h W_hn)) + b_n
        carried *= reset
        candidate += carried
        candidate += self.b_n.data
        np.tanh(candidate, out=candidate)
        # update gate: (x W_xz + h W_hz) + b_z
        update += hidden_update
        update += self.b_z.data
        np.negative(update, out=update)
        np.exp(update, out=update)
        update += 1.0
        np.divide(1.0, update, out=update)
        # blend: (1 - z) * n + z * h, freshly allocated result
        np.subtract(1.0, update, out=scratch)
        scratch *= candidate
        update *= h
        return scratch + update

    def __getstate__(self):
        # The gate buffers are scratch: they rebuild on first use after
        # unpickling instead of crossing process boundaries.  The weight
        # stacks travel as the weights and are linked again on arrival.
        state = self.__dict__.copy()
        state.pop("_np_gate_buffers", None)
        state.pop("_weight_stacks", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._link()


class Unrolled:
    """A :class:`GRUCell` run over ``T`` steps, kept for one backward pass.

    ``inputs`` is ``(T, D)`` (1-d steps) or ``(T, B, D)``, ``h0`` the
    starting hidden state; ``hiddens`` holds ``h_0 .. h_T``.  Each step
    is ``GRUCell.forward``'s arithmetic; the input projections of every
    step and gate are formed at once (:func:`matmul_steps` over the
    cell's input weight stack).
    ``kernel`` is the native GRU kernel when it is ready (module
    docstring), else ``None`` and the numpy loop runs.
    """

    def __init__(self, cell: GRUCell, inputs: np.ndarray, h0: np.ndarray) -> None:
        if inputs.ndim not in (2, 3) or inputs.shape[0] == 0 or inputs.shape[-1] != cell.input_size:
            raise ShapeError(
                f"GRU expects (T, {cell.input_size}) or (T, B, {cell.input_size}) input "
                f"with T >= 1, got shape {inputs.shape}"
            )
        if h0.shape != inputs.shape[1:-1] + (cell.hidden_size,):
            raise ShapeError(f"GRU got initial state {h0.shape} for input {inputs.shape}")
        self.cell, self.inputs = cell, inputs
        steps = inputs.shape[0]
        self.hiddens = np.empty((steps + 1,) + h0.shape)
        self.hiddens[0] = h0
        self.reset, self.update, self.carried, self.candidate = (
            np.empty((steps,) + h0.shape) for _ in range(4)
        )
        x_r, x_n, x_z = matmul_steps(inputs, cell._stacks()[0])
        self.kernel = native_kernel("gru")
        # The kernel multiplies a contiguous copy of h0, which BLAS and
        # einsum may round differently from a strided h0.
        if self.kernel is not None and h0.flags.c_contiguous:
            self.kernel.forward(self, x_r, x_z, x_n)
        else:
            self._forward_numpy(x_r, x_z, x_n, h0)

    def _forward_numpy(self, x_r, x_z, x_n, h: np.ndarray) -> None:
        """The forward steps in numpy from ``h = h0``: the native kernel's
        specification."""
        for t in range(self.inputs.shape[0]):
            *gates, h = self.cell._step(x_r[t], x_z[t], x_n[t], h)
            self.reset[t], self.update[t], self.carried[t], self.candidate[t] = gates
            self.hiddens[t + 1] = h

    def backward(
        self, grad: np.ndarray, inputs: Optional[Tensor] = None, h0: Optional[Tensor] = None
    ) -> None:
        """Back-propagate ``grad[t]``, what ``h_{t+1}`` received from outside
        the recurrence, through steps ``T .. 1``.

        Each step is ``GRUCell.forward``'s backward.  ``h_t``'s gradient is
        ``grad[t - 1]`` plus the four terms of step ``t + 1`` (module
        docstring); every parameter then receives one sum over all steps
        (:func:`~repro.nn.linear.accumulate_steps`) and the inputs one
        stacked product per gate, added n, r, z as each step adds them.
        ``inputs`` and ``h0`` are the tensors the forward read, if they
        take gradients.
        A ``grad`` not shaped like ``hiddens[1:]`` is refused before any
        gradient is touched.
        """
        grad = np.ascontiguousarray(grad, dtype=np.float64)
        if grad.shape != self.candidate.shape:
            raise ShapeError(
                f"GRU backward expects a gradient of shape {self.candidate.shape}, "
                f"got {grad.shape}"
            )
        cell = self.cell
        # Per-gate gradients, last step first.
        gates = np.empty((4,) + grad.shape)
        g_ns, g_rs, g_hns, g_zs = gates
        if self.kernel is None:
            g = self._backward_numpy(grad, *gates)
        else:
            g = self.kernel.backward(self, grad, gates)
        if h0 is not None and h0.requires_grad:
            # Step 0's four terms, as every later step adds them into h.
            for term in (
                input_grad(g_rs[-1], cell.w_hr.data),
                input_grad(g_hns[-1], cell.w_hn.data),
                g * self.update[0],
                input_grad(g_zs[-1], cell.w_hz.data),
            ):
                h0._accumulate(term)
        if inputs is not None and inputs.requires_grad:
            x_grad = input_grad_steps(g_ns, cell.w_xn.data)
            x_grad += input_grad_steps(g_rs, cell.w_xr.data)
            x_grad += input_grad_steps(g_zs, cell.w_xz.data)
            inputs._accumulate(x_grad[::-1])
        x_rows, h_rows = self.inputs[::-1], self.hiddens[-2::-1]
        for param, gate_grads, rows in (
            (cell.b_n, g_ns, None), (cell.w_xn, g_ns, x_rows),
            (cell.b_r, g_rs, None), (cell.w_xr, g_rs, x_rows), (cell.w_hr, g_rs, h_rows),
            (cell.w_hn, g_hns, h_rows),
            (cell.b_z, g_zs, None), (cell.w_xz, g_zs, x_rows), (cell.w_hz, g_zs, h_rows),
        ):
            accumulate_steps(param, gate_grads, rows)

    def _backward_numpy(self, grad, g_ns, g_rs, g_hns, g_zs) -> np.ndarray:
        """Fill the gate gradients in numpy, the native kernel's
        specification; returns the gradient of ``h_1``."""
        cell = self.cell
        # The step-independent factors, elementwise, for every step at once.
        fresh, d_tanh, d_reset = 1.0 - self.update, 1.0 - self.candidate ** 2, 1.0 - self.reset
        g = grad[-1]
        for k, t in enumerate(range(grad.shape[0] - 1, -1, -1)):
            reset, update = self.reset[t], self.update[t]
            g_n = np.multiply(g, fresh[t], out=g_ns[k])
            g_n *= d_tanh[t]
            g_r = np.multiply(g_n, self.carried[t], out=g_rs[k])
            g_r *= reset
            g_r *= d_reset[t]
            g_hn = np.multiply(g_n, reset, out=g_hns[k])
            g_update = -(g * self.candidate[t])
            g_update += g * self.hiddens[t]
            g_z = np.multiply(g_update, update, out=g_zs[k])
            g_z *= fresh[t]
            if t == 0:
                return g
            terms = (
                input_grad(g_r, cell.w_hr.data),
                input_grad(g_hn, cell.w_hn.data),
                g * update,
                input_grad(g_z, cell.w_hz.data),
            )
            g = grad[t - 1].copy()
            for term in terms:
                g += term


class GRU(Module):
    """Unrolls a :class:`GRUCell` over a sequence as one autograd node.

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
        if h0 is None:
            h0 = self.initial_state(sequence.shape[1] if sequence.ndim == 3 else None)
        elif not isinstance(h0, Tensor):
            h0 = Tensor(h0)
        run = Unrolled(self.cell, sequence.data, h0.data)

        def backward(grad: np.ndarray) -> None:
            run.backward(grad, sequence, h0)

        parents = (sequence, h0, *self.cell.parameters())
        stacked = Tensor._make(run.hiddens[1:], parents, backward)
        return stacked, stacked[-1]


# ----------------------------------------------------------------------
# The native sequence kernel (_gru_kernel.c)
# ----------------------------------------------------------------------

class _GRUArgs(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "x_r", "x_z", "x_n", "p_r", "p_z", "p_n", "b_r", "b_z", "b_n",
            "reset", "update", "carried", "candidate", "hiddens", "pad",
            "grad", "t_r", "t_hn", "t_z", "g", "g_n", "g_r", "g_hn", "g_z",
        )
    ] + [(name, ctypes.c_int64) for name in ("steps", "n", "hidden", "pad_rows")]


class NativeGRUKernel:
    """ctypes wrapper for ``_gru_kernel.c``, an :class:`Unrolled`'s glue in C.

    :meth:`forward` and :meth:`backward` run ``Unrolled``'s steps with
    every BLAS product, ``exp`` and ``tanh`` still numpy's, on the
    operand shapes the numpy loop uses, a gate's product an element of
    one stacked product.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        for name in ("gates", "candidate", "blend", "backward"):
            entry = getattr(lib, f"repro_gru_{name}")
            entry.restype = None
            entry.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        self._lib = lib

    @staticmethod
    def _args(run: Unrolled, pad_rows: int = 0, **arrays: np.ndarray) -> _GRUArgs:
        return _GRUArgs(
            **{name: _address(array) for name, array in arrays.items()},
            steps=run.inputs.shape[0],
            n=run.candidate[0].size,
            hidden=run.cell.hidden_size,
            pad_rows=pad_rows,
        )

    def forward(self, run: Unrolled, x_r: np.ndarray, x_z: np.ndarray, x_n: np.ndarray) -> None:
        """Fill ``run``'s arrays from the input projections, step by step."""
        cell, h0 = run.cell, run.hiddens[0]
        hidden_weights = cell._stacks()[1]
        # The hidden products take matmul_np's route: a batch's own gemm,
        # a 1-d row padded to two rows for gemm, or one einsum row.
        if h0.ndim == 2:
            pad, product = h0.copy(), np.matmul
        elif cell.hidden_size >= _GEMM_MIN_COLS:
            pad, product = np.stack((h0, h0)), np.matmul
        else:
            pad, product = h0.reshape(1, -1).copy(), matmul_rows_np
        projections = np.empty((3,) + pad.shape)
        p_r, p_n, p_z = projections
        x_r, x_z, x_n = (np.ascontiguousarray(x, dtype=np.float64) for x in (x_r, x_z, x_n))
        b_r, b_z, b_n = (
            np.ascontiguousarray(b.data, dtype=np.float64) for b in (cell.b_r, cell.b_z, cell.b_n)
        )
        args = self._args(
            run, pad.shape[0], x_r=x_r, x_z=x_z, x_n=x_n, p_r=p_r, p_z=p_z, p_n=p_n,
            b_r=b_r, b_z=b_z, b_n=b_n, reset=run.reset, update=run.update,
            carried=run.carried, candidate=run.candidate, hiddens=run.hiddens, pad=pad,
        )
        address = ctypes.addressof(args)
        lib = self._lib
        for t in range(run.inputs.shape[0]):
            product(pad, hidden_weights, out=projections)
            lib.repro_gru_gates(address, t)
            reset, update, candidate = run.reset[t], run.update[t], run.candidate[t]
            np.exp(reset, out=reset)
            np.exp(update, out=update)
            lib.repro_gru_candidate(address, t)
            np.tanh(candidate, out=candidate)
            lib.repro_gru_blend(address, t)

    def backward(self, run: Unrolled, grad: np.ndarray, gates: np.ndarray) -> np.ndarray:
        """``Unrolled._backward_numpy`` with the per-step glue in C; ``gates``
        stacks ``g_n, g_r, g_hn, g_z``."""
        steps, hidden = grad.shape[0], run.cell.hidden_size
        g_ns, g_rs, g_hns, g_zs = gates
        # input_grad's operands, r, hn, z as the hidden weight stack: a 1-d
        # row as a (1, H) matrix, a batch as is.
        operands = gates[1:].reshape(3, steps, -1, hidden)
        terms = np.empty((3,) + operands.shape[2:])
        t_r, t_hn, t_z = terms
        g = np.empty(grad.shape[1:])
        args = self._args(
            run, reset=run.reset, update=run.update, carried=run.carried,
            candidate=run.candidate, hiddens=run.hiddens, grad=grad, t_r=t_r, t_hn=t_hn,
            t_z=t_z, g=g, g_n=g_ns, g_r=g_rs, g_hn=g_hns, g_z=g_zs,
        )
        address, step = ctypes.addressof(args), self._lib.repro_gru_backward
        weights = run.cell._stacks()[1].transpose(0, 2, 1)
        step(address, steps - 1)
        # Step t + 1's hidden terms (row k, last step first), then step t.
        for k, t in enumerate(range(steps - 2, -1, -1)):
            np.matmul(operands[:, k], weights, out=terms)
            step(address, t)
        return g


def _self_check_runs() -> List[Optional[bytes]]:
    """Every :class:`Unrolled` array and every gradient, over two
    backwards each, of sequences on every route: 1-d steps on the einsum
    (H = 1, 4) and gemm (H = 9) routes, batches of 1 and 3, odd and even
    T, gradients unset and set, inputs and h0 taking gradients or not, and
    a frozen weight."""
    rng = np.random.default_rng(4242)
    snapshots: List[Optional[bytes]] = []
    for hidden, lead, steps in (
        (1, (), 3), (4, (), 4), (9, (), 5), (9, (), 2), (4, (3,), 3), (9, (1,), 4), (9, (3,), 2),
    ):
        cell = GRUCell(2, hidden, rng=hidden)
        for bias in (cell.b_r, cell.b_z, cell.b_n):
            bias.data[...] = rng.standard_normal(hidden)
        cell.w_hz.requires_grad = hidden != 4
        inputs = Tensor(rng.standard_normal((steps,) + lead + (2,)), requires_grad=steps % 2 == 1)
        h0 = Tensor(rng.standard_normal(lead + (hidden,)) * 0.5, requires_grad=steps % 2 == 0)
        for _ in range(2):
            run = Unrolled(cell, inputs.data, h0.data)
            run.backward(rng.standard_normal(run.candidate.shape), inputs, h0)
            arrays = (run.hiddens, run.reset, run.update, run.carried, run.candidate)
            snapshots.append(b"".join(array.tobytes() for array in arrays))
            for tensor in (inputs, h0, *cell.parameters()):
                snapshots.append(None if tensor.grad is None else tensor.grad.tobytes())
    return snapshots


register("gru", Path(__file__).with_name("_gru_kernel.c"), NativeGRUKernel, _self_check_runs)
