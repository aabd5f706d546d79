"""Periodic graph solver over a great circle and its closed-form oracles."""

import numpy as np
import pytest

from spherecsf import (GreatCircle, PeriodicGraph, constant_graph_oracle,
                       crosscheck, evolve_graph, intersection_count)
from spherecsf.curves import wrapped
from spherecsf.graphflow import POLE_GUARD, STEP_BUDGET, _lift_to_sphere
from spherecsf.errors import BlowUp, DomainError

Z = np.array([0.0, 0.0, 1.0])

CONSTANT_TOL = 1e-6
MODE_DECAY_TOL = 1e-3
CROSSCHECK_TOL = 5e-4


def grid(n):
    return 2.0 * np.pi * np.arange(n) / n


def evolve_fd(u, t_end):
    """The explicit finite-difference stepper evolve_graph once was, at its
    stable step dt = 0.2 dx^2 / max(1 + u^2)^2: an O(dx^2) differential oracle."""
    u = np.array(u, dtype=float)
    dx = 2.0 * np.pi / len(u)
    t = 0.0
    while t < t_end - 1e-15:
        one = 1.0 + u * u
        step = min(0.2 * dx * dx / float(np.max(one) ** 2), t_end - t)
        ext = wrapped(u, True)
        um, up = ext[:-2], ext[2:]
        ux = (up - um) / (2.0 * dx)
        uxx = (up - 2.0 * u + um) / (dx * dx)
        u = u + step * (one * one / (one + ux * ux)) * (uxx + u)
        t += step
    return u


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
    out = evolve_graph(PeriodicGraph(np.full(64, u0)), 0.05)
    exact = np.tan(np.arcsin(np.sin(0.1) * np.exp(0.05)))
    assert np.abs(out.values - exact).max() < CONSTANT_TOL
    assert abs(constant_graph_oracle(u0, 0.05) - exact) < 1e-12


def test_small_constant_data_grows_at_the_closed_form_rate():
    # 1e-8 is far below the step tolerance, so only the growth cap keeps the
    # step short enough for e^t to be followed to t = 10
    out = evolve_graph(PeriodicGraph(np.full(64, 1e-8)), 10.0)
    exact = constant_graph_oracle(1e-8, 10.0)
    assert np.abs(out.values / exact - 1.0).max() < 1e-3


def test_small_mode_decays_at_linear_rate():
    x = grid(256)
    for k in (2, 3):
        out = evolve_graph(PeriodicGraph(1e-3 * np.sin(k * x)), 0.05)
        amp = 2.0 * np.abs(np.fft.rfft(out.values)[k]) / 256
        pred = 1e-3 * np.exp((1 - k * k) * 0.05)  # mode k's linearized decay
        assert abs(amp / pred - 1.0) < MODE_DECAY_TOL


def test_mode_two_amplitude_example():
    x = grid(128)
    out = evolve_graph(PeriodicGraph(0.01 * np.sin(2 * x)), 0.1)
    amp = 2.0 * np.abs(np.fft.rfft(out.values)[2]) / 128
    assert abs(amp / (0.01 * np.exp(-0.3)) - 1.0) < 0.05


def test_capped_step_is_second_order_in_time():
    # every capped step meets the tolerance here, so halving dt quarters the error
    u0 = np.tan(0.1)
    errs = [np.abs(evolve_graph(PeriodicGraph(np.full(64, u0)), 0.1, dt=dt).values
                   - constant_graph_oracle(u0, 0.1)).max() for dt in (2e-3, 1e-3, 5e-4)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_noisy_profile_default_step_matches_a_fine_cap():
    # node noise excites every mode; a fixed step of 1e-3 lands about 8e-4 off
    x = grid(128)
    noisy = 0.1 * np.sin(2 * x) + 0.02 * np.random.default_rng(0).uniform(-1.0, 1.0, 128)
    fine = evolve_graph(PeriodicGraph(noisy), 0.01, dt=1e-5).values
    assert np.abs(evolve_graph(PeriodicGraph(noisy), 0.01).values - fine).max() < 1e-5


def test_spectral_and_finite_difference_solvers_agree_to_dx_squared():
    gaps = []
    for n in (128, 256):
        x = grid(n)
        u = np.tan(0.03 * np.sin(2 * x) + 0.02 * np.cos(5 * x))
        gaps.append(np.abs(evolve_fd(u, 0.1) - evolve_graph(PeriodicGraph(u), 0.1).values).max())
    assert gaps[1] < 2e-6
    assert 3.5 < gaps[0] / gaps[1] < 4.5


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


def test_tiny_dt_exceeds_the_step_budget():
    with pytest.raises(DomainError, match="dt must be"):
        evolve_graph(PeriodicGraph(np.zeros(64)), 0.01, dt=1e-300)
    with pytest.raises(DomainError, match="dt must be"):
        evolve_graph(PeriodicGraph(np.zeros(64)), 0.01, dt=0.01 / (1.01 * STEP_BUDGET))


def test_crosscheck_two_solvers_agree():
    x = grid(128)
    res = crosscheck(PeriodicGraph(0.05 * np.sin(2 * x)), GreatCircle(Z), 0.05,
                     curve_nodes=256)
    assert res["gap"] < CROSSCHECK_TOL


def test_crosscheck_dt_caps_the_graph_step():
    # the error-controlled step on this profile averages about 1.8e-3, so a dt
    # of 2e-4 binds
    g = PeriodicGraph(0.05 * np.sin(2 * grid(128)))
    res = crosscheck(g, GreatCircle(Z), 0.05, curve_nodes=256, dt=2e-4)
    capped = evolve_graph(g, 0.05, dt=2e-4).values
    assert np.array_equal(res["graph"].values, capped)
    assert not np.array_equal(evolve_graph(g, 0.05).values, capped)
