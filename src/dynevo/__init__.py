"""Neuroevolution of dynamic recurrent network architectures."""

__version__ = "0.1.0"

from .netgraph import (  # noqa: F401
    DynamicNet,
    FrozenNet,
    MutationOutcome,
    PassState,
    build_static,
    new_minimal,
)
from .rng import RngStream, derive_stream  # noqa: F401
