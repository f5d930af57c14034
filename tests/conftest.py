"""Fixtures and helpers shared by the test modules."""

import dataclasses

import numpy as np
import pytest

from eemsync import NoiseParams, NumericalError, build_ensemble, star_measurement
from eemsync import scenarios as scen
from eemsync.presets import DEMO_MEAS_STD, demo_noise_params


def demo_model(n_clocks, tau, singular_q):
    """The bundled ensemble's first n_clocks; with ``singular_q`` its first
    clock has no random-walk FM, which zeroes a row and column of bigQ."""
    params = demo_noise_params()[:n_clocks]
    if singular_q:
        params[0] = NoiseParams(params[0].sigma1, 0.0)
    R = np.diag(DEMO_MEAS_STD[: n_clocks - 1] ** 2)
    return build_ensemble(params, star_measurement(n_clocks), R, tau)


@pytest.fixture
def free_run_raises(monkeypatch):
    """Make every free-run scenario's runner raise a NumericalError."""

    def explode(cfg, art):
        raise NumericalError("synthetic breakdown")

    spec = dataclasses.replace(scen.KINDS["free-run"], run=explode)
    monkeypatch.setitem(scen.KINDS, "free-run", spec)
