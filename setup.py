from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

ext_modules = []
if cythonize is not None:
    # numpy is needed only to compile the extension, so an isolated build
    # without Cython never imports it
    import numpy as np

    ext_modules = cythonize(
        [
            Extension(
                "tmotive._kernels._speedups",
                ["src/tmotive/_kernels/_speedups.pyx"],
                include_dirs=[np.get_include()],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )

# Without Cython the package installs pure-Python; the kernels fall back
# to the numpy implementation at import time.
setup(ext_modules=ext_modules)

# build in place for development (needs Cython and numpy installed):
#   python setup.py build_ext --inplace
