"""Continual learning with threshold-gated low-rank adapters."""

__version__ = "0.1.0"
