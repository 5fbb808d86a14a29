"""Shared fixtures: default parameter sets and their eigensystems."""

import pytest

from snspin.params import ground_defaults, excited_defaults, reference_field
from snspin.spinmodel import manifold_eigensystem


@pytest.fixture(scope="session")
def ground():
    return ground_defaults()


@pytest.fixture(scope="session")
def excited():
    return excited_defaults()


@pytest.fixture(scope="session")
def field():
    return reference_field()


@pytest.fixture(scope="session")
def ground_system(ground, field):
    return manifold_eigensystem(ground, field)


@pytest.fixture(scope="session")
def excited_system(excited, field):
    return manifold_eigensystem(excited, field)


@pytest.fixture
def eight_levels(monkeypatch):
    """Every engine sweep propagates all 8 levels: the lower-branch rule
    still computes its figures, but its reduction is refused."""
    from snspin import dynamics

    rule = dynamics._Engine._levels
    monkeypatch.setattr(dynamics._Engine, "_levels",
                        lambda self, *args: (8,) + rule(self, *args)[1:])
