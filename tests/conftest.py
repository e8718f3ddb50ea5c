"""Shared builders for the recurring corpus instances."""

import pytest

from momentforge import hamclass
from momentforge.geom import (ActionSpec, FlatTorusFactor, ProductManifold,
                              SphereFactor)

STD2 = ((0, 1), (-1, 0))
STD4 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
STD6 = ((0, 1, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
        (0, 0, -1, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, -1, 0))


def classify(m, a, form=None):
    """The classification integralization starts from: that of the form
    itself (the manifold's own form by default)."""
    return hamclass.classify_action(
        hamclass.period_matrix(m, a, form or m.form()))


def torus2(omega=STD2):
    return ProductManifold(FlatTorusFactor(omega), ())


def torus4():
    return ProductManifold(FlatTorusFactor(STD4), ())


def sphere(c=0.5):
    return ProductManifold(None, (SphereFactor(c),))


def s2xs2(c1=0.5, c2=0.5):
    return ProductManifold(None, (SphereFactor(c1), SphereFactor(c2)))


def s2xt2(c=1, omega=STD2):
    return ProductManifold(FlatTorusFactor(omega), (SphereFactor(c),))


@pytest.fixture
def t2_translations():
    """Standard T^2 with both coordinate translations."""
    return torus2(), ActionSpec(((1, 0), (0, 1)), ((), ()))


@pytest.fixture
def s2xs2_rotations():
    """Unit-area S^2 x S^2 with one rotation per factor."""
    return s2xs2(), ActionSpec(((), ()), ((1, 0), (0, 1)))


@pytest.fixture
def s2xt2_mixed():
    """S^2 x T^2 with a Hamiltonian rotation and two translations."""
    return s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                               ((1,), (0,), (0,)))
