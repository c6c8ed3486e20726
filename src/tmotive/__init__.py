"""tmotive: exact non-archimedean computation for rank-2n Anderson modules.

Layers, bottom to top:

* ``ffield``     ambient finite field with table-driven arithmetic
* ``cinf``       truncated Puiseux series over the ambient field
* ``linalg``     matrices over every ring above, vectorization, solving
* ``anderson``   module data, exponential coefficients and evaluation
* ``latticemap`` period, perturbed roots, lattices, Siegel matrices, mobius
* ``isomsolver`` block isomorphism system and its fixed-point solver
* ``cli``        JSON-speaking command line driver and acceptance runner

The series kernels have a compiled backend (Cython) with a pure-numpy
fallback; see tmotive._kernels.BACKEND for which one is active.
"""

from ._kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
