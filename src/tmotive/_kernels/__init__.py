"""Kernel backend selection: compiled extension when built, numpy fallback.

Set TMOTIVE_PURE=1 in the environment to force the pure backend
(benchmarks/bench_kernels.py sets it to time each backend; the tests
import the pure module directly).
"""

import os

from . import pure

if os.environ.get("TMOTIVE_PURE"):
    _impl = pure
    BACKEND = "pure"
else:
    try:
        from . import _speedups as _impl
        BACKEND = "compiled"
    except ImportError:
        _impl = pure
        BACKEND = "pure"

series_add_merge = _impl.series_add_merge
series_mul = _impl.series_mul

__all__ = ["BACKEND", "series_add_merge", "series_mul", "pure"]
