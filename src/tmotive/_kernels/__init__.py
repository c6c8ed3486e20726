"""The sparse-series kernels every series operation runs through.

Callers reach them as ``_kernels.series_dot``, ``_kernels.series_mul``,
``_kernels.series_add_merge`` and ``_kernels.sum_terms``, so a tracer
can rebind the attributes here.  ``series_dot`` is the one product
accumulation loop: it sums any number of products and addends in one
window, and ``series_mul`` is its one-pair call (a one-term factor
only shifts and scales the other).  ``_kernels.distinct``
is the kernels' sort-based np.unique, shared with the lattice-class
recovery.
"""

from .pure import distinct, series_add_merge, series_dot, series_mul, sum_terms

__all__ = ["distinct", "series_add_merge", "series_dot", "series_mul", "sum_terms"]
