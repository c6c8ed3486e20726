"""tmotive: exact non-archimedean computation for rank-2n Anderson modules.

Layers, bottom to top:

* ``ffield``     ambient finite field with table-driven arithmetic, and
                 ``Poly``, the dense-polynomial arithmetic of both rings
* ``cinf``       truncated Puiseux series over the ambient field, and
                 ``PolyT``, the ``Poly`` ring in T over the series
* ``linalg``     matrices over every ring above, solving
* ``anderson``   module data, exponential coefficients and evaluation
* ``latticemap`` period, perturbed roots, lattices, Siegel matrices, mobius
* ``isomsolver`` block isomorphism system and its fixed-point solver
* ``cli``        JSON-speaking command line driver and acceptance runner

The sparse-series product and merge-add run in numpy
(``tmotive._kernels.pure``); ``KERNEL_BACKEND`` names that kernel in
benchmark records.
"""

KERNEL_BACKEND = "pure"

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
