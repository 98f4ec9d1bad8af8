"""Adam optimiser (Kingma & Ba, 2014) — the optimiser used by the paper."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import TrainingError
from repro.native import kernel as native_kernel
from repro.optim.optimizer import Optimizer, require_positive


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates.

    The paper trains with Adam at an initial learning rate of 3e-4
    (Section 4.2); that is this class's default.

    The moments of every parameter live in two flat buffers, parameter
    after parameter.  A step updates each contiguous run of parameters
    that hold a gradient as one flat array — the per-parameter update's
    elementwise expressions, so the same bits — and writes it into each
    ``param.data`` in place.  A parameter without a gradient (a head the
    loss never read) keeps its weights and moments.

    When the native ``"dense"`` kernel (:mod:`repro.native`) is ready the
    step is one C pass over every parameter (``repro/nn/_dense_kernel.c``)
    that reads each ``param.grad`` where it lies and applies the same
    expressions in the same order; the numpy pass below is its
    specification and the no-compiler path.
    """

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise TrainingError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = require_positive("eps", eps)
        self._offsets = np.cumsum([0] + [p.data.size for p in self.parameters]).tolist()
        self._m = np.zeros(self._offsets[-1])
        self._v = np.zeros(self._offsets[-1])

    def _runs(self):
        """``(first, stop)`` index ranges of consecutive parameters with a gradient."""
        first = None
        for index, param in enumerate(self.parameters + [None]):
            if param is not None and param.grad is not None:
                first = index if first is None else first
            elif first is not None:
                yield first, index
                first = None

    def _apply(self) -> None:
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        kernel = native_kernel("dense")
        if kernel is not None and kernel.adam(
            self.parameters, self._m, self._v, (self.beta1, self.beta2), (bias1, bias2),
            self.lr, self.eps,
        ):
            return
        offsets = self._offsets
        for first, stop in self._runs():
            run = self.parameters[first:stop]
            lo, hi = offsets[first], offsets[stop]
            grad = np.concatenate([param.grad.reshape(-1) for param in run])
            m, v = self._m[lo:hi], self._v[lo:hi]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            for param, start in zip(run, offsets[first:stop]):
                param.data -= update[start - lo : start - lo + param.data.size].reshape(param.shape)
