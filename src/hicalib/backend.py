"""The day-simulation kernel in use: always the pure-Python `_kernel_py`."""

from __future__ import annotations

from . import _kernel_py


def active():
    """The kernel module."""
    return _kernel_py


def active_name() -> str:
    return "pure"
