"""Fixtures shared by the scenario and CLI tests."""

import dataclasses

import pytest

from eemsync import NumericalError
from eemsync import scenarios as scen


@pytest.fixture
def free_run_raises(monkeypatch):
    """Make every free-run scenario's runner raise a NumericalError."""

    def explode(cfg, art):
        raise NumericalError("synthetic breakdown")

    spec = dataclasses.replace(scen.KINDS["free-run"], run=explode)
    monkeypatch.setitem(scen.KINDS, "free-run", spec)
