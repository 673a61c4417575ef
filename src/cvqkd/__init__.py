"""Continuous-variable QKD simulator and key post-processing pipeline.

Gaussian coherent-state encoding with simultaneous dual-quadrature
measurement, a beam-splitter-attack channel model, banded post-selection,
repeat-code advantage distillation, Cascade reconciliation, and Toeplitz
privacy amplification — runnable in-process or as a two-party networked
protocol.
"""

from .channel import (ChannelParams, SymbolBatch, MeasurementBatch,
                      estimate_channel, generate_symbols,
                      transmit_and_measure)
from .errors import (CvqkdError, InvalidConfigError, ProtocolAbort,
                     ProtocolError, VerificationFailedError)
from .pipeline import PipelineConfig, run_pipeline
from .security import (binary_entropy, error_probability,
                       optimal_modulation_variance, theoretical_key_rate_curve)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "SymbolBatch", "MeasurementBatch", "estimate_channel",
    "generate_symbols", "transmit_and_measure", "CvqkdError",
    "InvalidConfigError", "ProtocolAbort", "ProtocolError",
    "VerificationFailedError", "PipelineConfig", "run_pipeline",
    "binary_entropy", "error_probability", "optimal_modulation_variance",
    "theoretical_key_rate_curve", "__version__",
]
