"""Periodic graph solver over a great circle and its closed-form oracles."""

import numpy as np
import pytest

from spherecsf import (GreatCircle, PeriodicGraph, constant_graph_oracle,
                       crosscheck, evolve_graph, intersection_count,
                       linear_mode_decay)
from spherecsf.graphflow import POLE_GUARD, _lift_to_sphere
from spherecsf.errors import BlowUp, DomainError

Z = np.array([0.0, 0.0, 1.0])

CONSTANT_TOL = 1e-6
MODE_DECAY_TOL = 1e-3
CROSSCHECK_TOL = 5e-4


def grid(n):
    return 2.0 * np.pi * np.arange(n) / n


def test_grid_validation():
    for bad in (48, 100):
        with pytest.raises(DomainError):
            PeriodicGraph(np.ones(bad))
    with pytest.raises(BlowUp):
        PeriodicGraph(np.full(64, np.tan(np.pi / 2 - 1e-4)))


def test_heights_are_arctan():
    g = PeriodicGraph(np.full(64, np.tan(0.3)))
    assert np.abs(g.heights - 0.3).max() < 1e-12


def test_zero_profile_is_static():
    out = evolve_graph(PeriodicGraph(np.zeros(64)), 0.3)
    assert np.abs(out.values).max() < 1e-15


def test_constant_data_matches_closed_form():
    # constant data reduces the PDE to u' = (1 + u^2) u
    u0 = np.tan(0.1)
    out = evolve_graph(PeriodicGraph(np.full(64, u0)), 0.05, dt=2e-5)
    exact = np.tan(np.arcsin(np.sin(0.1) * np.exp(0.05)))
    assert np.abs(out.values - exact).max() < CONSTANT_TOL
    assert abs(constant_graph_oracle(u0, 0.05) - exact) < 1e-12


def test_small_mode_decays_at_linear_rate():
    x = grid(256)
    for k in (2, 3):
        out = evolve_graph(PeriodicGraph(1e-3 * np.sin(k * x)), 0.05, dt=2e-5)
        amp = 2.0 * np.abs(np.fft.rfft(out.values)[k]) / 256
        pred = 1e-3 * linear_mode_decay(k, 0.05)
        assert abs(amp / pred - 1.0) < MODE_DECAY_TOL


def test_mode_two_amplitude_example():
    x = grid(128)
    out = evolve_graph(PeriodicGraph(0.01 * np.sin(2 * x)), 0.1, dt=5e-5)
    amp = 2.0 * np.abs(np.fft.rfft(out.values)[2]) / 128
    assert abs(amp / (0.01 * np.exp(-0.3)) - 1.0) < 0.05


def test_linear_mode_decay_formula():
    assert abs(linear_mode_decay(3, 0.05) - np.exp(-8 * 0.05)) < 1e-15
    assert linear_mode_decay(1, 0.7) == 1.0  # the translation mode persists


def test_lift_constant_profile():
    g = GreatCircle(Z)
    curve = _lift_to_sphere(PeriodicGraph(np.full(128, np.tan(0.3))), g)
    h = g.band_coordinate(curve.nodes)
    assert np.abs(h - 0.3).max() < 1e-12
    assert curve.n == 128


def test_lift_zero_is_the_circle():
    g = GreatCircle(Z)
    curve = _lift_to_sphere(PeriodicGraph(np.zeros(64)), g)
    assert np.abs(g.band_coordinate(curve.nodes)).max() < 1e-15


def test_lift_mode_three_crossings():
    g = GreatCircle(Z)
    x = grid(128)
    curve = _lift_to_sphere(PeriodicGraph(0.05 * np.sin(3 * x)), g)
    assert intersection_count(curve, g) == 6


def test_oracle_blowup():
    with pytest.raises(BlowUp):
        constant_graph_oracle(np.tan(1.5), 0.01)


def test_loop_pole_guard():
    u0 = POLE_GUARD * (1.0 - 1e-6)
    with pytest.raises(BlowUp):
        evolve_graph(PeriodicGraph(np.full(64, u0)), 0.01)


def test_negative_time_rejected():
    # NaN passes a bare `t_end < 0`; inf would step a zero profile forever
    for t_end in (-0.1, np.nan, np.inf):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            evolve_graph(PeriodicGraph(np.zeros(64)), t_end)


def test_crosscheck_two_solvers_agree():
    x = grid(128)
    res = crosscheck(PeriodicGraph(0.05 * np.sin(2 * x)), GreatCircle(Z), 0.05,
                     curve_nodes=256, dt=2e-4)
    assert res["gap"] < CROSSCHECK_TOL


def test_crosscheck_dt_caps_the_graph_step():
    # at n = 128 the stable step is about 4.8e-4, so a dt of 2e-4 binds
    g = PeriodicGraph(0.05 * np.sin(2 * grid(128)))
    res = crosscheck(g, GreatCircle(Z), 0.05, curve_nodes=256, dt=2e-4)
    capped = evolve_graph(g, 0.05, dt=2e-4).values
    assert np.array_equal(res["graph"].values, capped)
    assert not np.array_equal(evolve_graph(g, 0.05).values, capped)
