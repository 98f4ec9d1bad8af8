"""Minimal neural-network layer library built on the autograd engine."""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.rnn import GRUCell, GRU
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "GRUCell",
    "GRU",
    "init",
]
