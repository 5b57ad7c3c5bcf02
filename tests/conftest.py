import ctypes
import ctypes.util

import numpy as np
import pytest

from dblab.examples import pw_space
from dblab.expressions import Poly, ZeroSequence
from dblab.space import DbSpace


@pytest.fixture(scope="session")
def pw1() -> DbSpace:
    return pw_space(1.0)


@pytest.fixture(scope="session")
def pw1_untyped() -> DbSpace:
    """The E of PW_1 with no declared exponential type: ``inner_product``
    integrates its norms by quadrature instead of sampling them."""
    return DbSpace(pw_space(1.0).e, None, 1.0, 0.0, "pw1 untyped")


@pytest.fixture(scope="session")
def zpi() -> DbSpace:
    """H(z + i): the one-dimensional space with constant kernel 1/pi."""
    return DbSpace(Poly([1j, 1.0]), ZeroSequence("zi", np.array([-1j])),
                   0.0, 0.0, "zpi")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture()
def erange():
    """A function leaving ``errno`` at ERANGE, as an overflowing libm call
    does: Python 3.11's ``abs()`` of a complex with a NaN part then raises
    ``OverflowError`` instead of returning NaN."""
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    libm.exp.restype, libm.exp.argtypes = ctypes.c_double, [ctypes.c_double]
    return lambda: libm.exp(1000.0)
