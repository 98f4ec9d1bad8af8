"""Base classes for network modules: parameter registration and state I/O."""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import SerializationError


class Parameter(Tensor):
    """A tensor that is always trainable and discoverable by :class:`Module`."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)
        # Parameters must stay trainable even if constructed under no_grad().
        self.requires_grad = True


class Module:
    """Base class providing parameter discovery and state dicts.

    Subclasses assign :class:`Parameter` and sub-``Module`` instances as
    attributes; ``parameters()`` walks the attribute tree recursively.
    """

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr_name, value in vars(self).items():
            if attr_name.startswith("_") and not isinstance(value, (Parameter, Module, list)):
                continue
            full = f"{prefix}{attr_name}" if not prefix else f"{prefix}.{attr_name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    @contextlib.contextmanager
    def frozen(self) -> Iterator["Module"]:
        """Scope in which no parameter of this module requires a gradient.

        A backward pass through the module still reaches its inputs but
        leaves every ``param.grad`` alone; flags are restored on exit.
        """
        parameters = self.parameters()
        flags = [param.requires_grad for param in parameters]
        for param in parameters:
            param.requires_grad = False
        try:
            yield self
        finally:
            for param, flag in zip(parameters, flags):
                param.requires_grad = flag

    # ------------------------------------------------------------------
    # State (de)serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: np.array(param.data) for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise SerializationError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise SerializationError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value

    # ------------------------------------------------------------------
    # Calling convention
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - interface method
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
