"""Quantized Bottleneck Networks (QBNs).

Implementation of the quantisation technique of Koul, Greydanus & Fern
(2018) used by the paper (Section 3.2.1): two auto-encoders — one for
observations (OX) and one for GRU hidden states (HX) — whose latent
entries are restricted to ``k`` discrete levels.  Running the trained
policy through the QBNs yields a discrete dataset
``<bh_t, bh_{t+1}, bo_t, a_t>`` from which a finite state machine is read
off as a transition table.
"""

from repro.qbn.quantize import quantize_ste, quantization_levels, values_to_codes
from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork
from repro.qbn.dataset import TransitionDataset
from repro.qbn.trainer import QBNTrainer, QBNTrainingConfig, QBNTrainingResult

__all__ = [
    "quantize_ste",
    "quantization_levels",
    "values_to_codes",
    "QBNConfig",
    "QuantizedBottleneckNetwork",
    "TransitionDataset",
    "QBNTrainer",
    "QBNTrainingConfig",
    "QBNTrainingResult",
]
