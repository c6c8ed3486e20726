"""The sparse-series kernels every series operation runs through.

Callers reach them as ``_kernels.series_mul``, ``_kernels.series_add_merge``
and ``_kernels.sum_terms``, so a tracer can rebind the attributes here.
``_kernels.distinct`` is the kernels' sort-based np.unique, shared with
the lattice-class recovery.
"""

from .pure import distinct, series_add_merge, series_mul, sum_terms

__all__ = ["distinct", "series_add_merge", "series_mul", "sum_terms"]
