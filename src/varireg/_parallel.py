"""Thread-count setting, accepted for compatibility.

The pipelines run serially in input order: each per-curve step is a few
small NumPy calls, and a thread pool over curves measured slower than one
thread.  The ``threads`` options, ``--threads`` and ``VARIREG_THREADS`` are
still accepted and validated, but have no effect.
"""

from __future__ import annotations

import os

DEFAULT_THREADS_ENV = "VARIREG_THREADS"


def resolve_threads(threads=None) -> int:
    if threads is None:
        threads = os.environ.get(DEFAULT_THREADS_ENV, "1")
    try:
        return max(1, int(threads))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"thread count must be an integer, got {threads!r}") from None
