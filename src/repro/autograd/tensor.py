"""The :class:`Tensor` type and differentiable primitive operations.

Design notes
------------
* A ``Tensor`` owns a float64 numpy array (``data``), an optional
  gradient accumulator (``grad``) and, if it was produced by an
  operation, a backward closure plus references to its parents.
* ``backward()`` runs a topological sort of the graph reachable from the
  output and applies each node's backward closure exactly once.
* A tensor owns its ``grad`` buffer.  ``_accumulate`` copies the first
  contribution and adds every later one into that copy in place, so a
  backward closure may hand the same array to several parents, pass on a
  read-only broadcast view or the caller's own array, and nobody's
  gradient changes under them; code that scales or rewrites ``grad`` in
  place (``clip_grad_norm``) touches that one tensor only.  Do not bind
  ``grad`` to an array something else holds; ``_adopt`` takes a new
  array a node made for this tensor alone without the copy.
* Gradients are summed in the order the reversed DFS post-order visits
  the nodes.  Float addition does not associate, so that order decides
  the bits of every trained weight: a node that stands for a whole
  sub-graph (``nn.Linear``, the QBN node, ``mse_loss``) accumulates in
  the order its op-by-op nodes would have.
* Broadcasting is supported for elementwise arithmetic; gradients are
  reduced back to each operand's shape by :func:`_unbroadcast`.
* A module-level switch (:func:`no_grad`) disables graph construction
  for inference-only code paths (rollout collection, evaluation).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AutogradError, ShapeError

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction within its scope."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data as a numpy array."""
        return np.array(self.data)

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        if self.ndim == 0:
            raise ShapeError("len() of a 0-d tensor")
        return self.shape[0]

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _adopt(self, grad: np.ndarray) -> None:
        """``_accumulate`` for a new float64 array that nothing else holds:
        with no gradient yet, ``grad`` becomes it instead of being copied."""
        if self.grad is None and grad.shape == self.data.shape:
            self.grad = grad
        else:
            self._accumulate(grad)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad), dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order = self._topological_order()
        self._accumulate(grad)
        for node in reversed(order):
            if node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> List["Tensor"]:
        """Graph nodes (tensors with a backward closure) in DFS post-order.

        The visit order — last parent first, a shared ancestor placed at
        its first visit — fixes the order gradients are summed in, and
        with it the bits of every trained weight; leaves have nothing to
        run and are left out.
        """
        order: List[Tensor] = []
        visited: set[int] = set()
        # A node is pushed once to be expanded and, under a None marker,
        # once more to be emitted after everything it was computed from.
        stack: List[Optional[Tensor]] = [self]
        while stack:
            node = stack.pop()
            if node is None:
                order.append(stack.pop())
                continue
            if node._backward is None or id(node) in visited:
                continue
            visited.add(id(node))
            stack.append(node)
            stack.append(None)
            stack.extend(node._parents)
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        """``other - self`` without materialising ``other`` as a graph node.

        ``other`` is a constant (a scalar or array, never a Tensor —
        Python would have dispatched to its ``__sub__`` otherwise), so
        only ``self`` receives a gradient, and no ones-like tensor is
        built for an expression like ``1.0 - gate``.
        """
        data = _as_array(other) - self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        if self.ndim < 1 or other_t.ndim < 1:
            raise ShapeError("matmul requires at least 1-d operands")
        if self.ndim == 1 and other_t.ndim == 2:
            # Route the vector-matrix case through the batch-size-stable
            # kernel instead of BLAS gemv, which keeps single-step
            # inference bit-identical to rows of the batched vectorized
            # execution path (see functional.matmul_rows_np).
            from repro.autograd.functional import matmul_rows_np

            data = matmul_rows_np(self.data.reshape(1, -1), other_t.data)[0]
        else:
            data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                if self.requires_grad:
                    self._accumulate(grad * b)
                if other_t.requires_grad:
                    other_t._accumulate(grad * a)
                return
            if a.ndim == 1:
                a2 = a.reshape(1, -1)
                grad2 = np.asarray(grad).reshape(1, -1)
                if self.requires_grad:
                    self._accumulate((grad2 @ b.T).reshape(a.shape))
                if other_t.requires_grad:
                    other_t._accumulate(a2.T @ grad2)
                return
            if b.ndim == 1:
                b2 = b.reshape(-1, 1)
                grad2 = np.asarray(grad).reshape(*grad.shape, 1)
                if self.requires_grad:
                    self._accumulate((grad2 @ b2.T))
                if other_t.requires_grad:
                    other_t._accumulate(_unbroadcast((a.swapaxes(-1, -2) @ grad2).reshape(*a.shape[:-2], a.shape[-1]) if a.ndim > 2 else (a.T @ grad2).reshape(b.shape), b.shape))
                return
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad @ b.swapaxes(-1, -2), a.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(a.swapaxes(-1, -2) @ grad, b.shape))

        return Tensor._make(data, (self, other_t), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            denom = self.data.size
        else:
            denom = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(original))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(np.float64)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Combination helpers (static)
    # ------------------------------------------------------------------
    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        if not tensors:
            raise ShapeError("stack() requires at least one tensor")
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            for i, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate(np.take(grad, i, axis=axis))

        return Tensor._make(data, tuple(tensors), backward)
