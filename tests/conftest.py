import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from quadray import QuadraticMap

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_LAMBDA = cmath.exp(2j * math.pi * GOLDEN_ROTATION)
GOLDEN_C = GOLDEN_LAMBDA / 2.0 - GOLDEN_LAMBDA ** 2 / 4.0
GOLDEN_ALPHA = GOLDEN_LAMBDA / 2.0


def mp_preimage_tree(c, z, n, bits=120):
    """Reference backward tree under f^n rooted at z, in software floating
    point: (leaves, log|(f^n)'| along each path), rounded to binary64."""
    with mp.workprec(bits):
        cc = mp.mpc(c)
        level = [(mp.mpc(z), mp.mpf(0))]
        for _ in range(n):
            nxt = []
            for w, ld in level:
                s = mp.sqrt(w - cc)
                inc = mp.log(2 * abs(s)) if s != 0 else mp.mpf("-inf")
                nxt.append((s, ld + inc))
                nxt.append((-s, ld + inc))
            level = nxt
        return (np.array([complex(w) for w, _ in level]),
                np.array([float(ld) for _, ld in level]))


@pytest.fixture
def squaring():
    return QuadraticMap(0.0)


@pytest.fixture
def basilica():
    return QuadraticMap(-1.0)


@pytest.fixture
def chebyshev():
    return QuadraticMap(-2.0)


@pytest.fixture
def airplane_root():
    return QuadraticMap(-1.75)


@pytest.fixture
def golden_siegel():
    return QuadraticMap(GOLDEN_C)
