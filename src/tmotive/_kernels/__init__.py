"""The two sparse-series kernels every series operation runs through.

Callers reach them as ``_kernels.series_mul`` and
``_kernels.series_add_merge``, so a tracer can rebind the attributes
here and see every call.
"""

from .pure import series_add_merge, series_mul

__all__ = ["series_add_merge", "series_mul"]
