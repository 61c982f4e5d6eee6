"""Fixtures shared by the test modules."""

import pytest

from csmcalc import chow


@pytest.fixture
def no_binomials(monkeypatch):
    """chow._binomials raises: an ambient dimension refused too late fails the
    test at once instead of starting a loop of its own size."""

    def forbidden(*args):
        raise AssertionError("an unbounded dimension reached _binomials")

    monkeypatch.setattr(chow, "_binomials", forbidden)
