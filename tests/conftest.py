import pytest

from voxlight.pipeline import openblas_core


@pytest.fixture(scope="session")
def blas_core() -> str:
    """``openblas_core`` of the test process. The digest pins depend on it;
    ``np.show_config()`` names the build's target instead."""
    return openblas_core()
