"""connsum: numerical laboratory for low-energy resolvents and Riesz
transforms on two-ended model connected sums.

The model space glues a two-dimensional-end product R^2 x M_minus to a
higher-dimensional-end product R^{n_plus} x M_plus through a rotationally
symmetric neck, so every construction reduces to weighted one-dimensional
radial problems, one per separated-variables channel.

Importing the package holds scipy's bundled OpenBLAS at one thread.
numpy and scipy wheels each bundle their own OpenBLAS, and both read
OPENBLAS_NUM_THREADS, so N threads there start two pools of N busy-waiting
workers that take the CPUs from each other as the dense steps alternate
between numpy (E(k), the solves, the products) and scipy (the LU
factorizations behind k0).  numpy's pool keeps the count the environment
sets.  With no bundled library, or one without the symbol (a system or
MKL scipy), nothing is changed.
"""

import ctypes as _ctypes
from pathlib import Path as _Path

import scipy as _scipy

__version__ = "0.1.0"

for _lib in _Path(_scipy.__file__).parent.parent.glob(
        "scipy.libs/libscipy_openblas*.so"):
    _hold = getattr(_ctypes.CDLL(str(_lib)),
                    "scipy_openblas_set_num_threads", None)
    if _hold is not None:
        _hold(1)
