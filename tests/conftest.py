import sys

# no bytecode for the package under test: a __pycache__ left in the source
# tree changes the peak RSS of a later run from the same checkout
sys.dont_write_bytecode = True

import pytest
from hypothesis import settings

from seplane.params import Nonlinearity, ReducedParams

settings.register_profile("no_db", database=None)
settings.load_profile("no_db")


def rel_err(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) if scale == 0.0 else abs(a - b) / scale


@pytest.fixture
def duffing_soft():
    """Reduced parameters for the classical cubic oscillator with a negative
    linear part: w'' + w + w^3 = 0."""
    return ReducedParams(2.0, 3.0, -1.0, 0.0), Nonlinearity(2.0, 3.0)


@pytest.fixture
def center_case():
    """b + d > 0: the phase plane has the interior center at (1, 0)."""
    return ReducedParams(2.0, 3.0, -1.0, 2.0), Nonlinearity(2.0, 3.0)


@pytest.fixture
def p1_power():
    """p = 1 reduced system with the identity source."""
    return Nonlinearity(1.0, 1.0)
