import ctypes
import glob
import os

import numpy as np
import pytest


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs in this process, as the library
    reports it (``OPENBLAS_CORETYPE`` overrides it), or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


@pytest.fixture(scope="session")
def blas_core() -> str:
    """``openblas_core`` of the test process. The digest pins depend on it;
    ``np.show_config()`` names the build's target instead."""
    return openblas_core()
