import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from epps._numutil import _SMALL_DT, triangle_exp_integral
from epps.errors import DataError
from epps.kernels import (CorrelationModel, ModelPair, sync_covariance,
                          sync_rho, parse_model_text)


def fields(m):
    return m.delta_weight, m.lag, m.width, m.exp_weight


def test_zero_width_exponential_folds_into_the_delta():
    m = CorrelationModel(delta_weight=0.3, lag=2.0, exp_weight=0.2, width=0.0)
    assert fields(m) == (0.3 + 0.2, 2.0, 0.0, 0.0)
    assert m == CorrelationModel(delta_weight=0.3 + 0.2, lag=2.0)
    # a negative one too, which ModelPair counted twice
    m = CorrelationModel(delta_weight=1.0, exp_weight=-0.6)
    assert fields(m) == (1.0 - 0.6, 0.0, 0.0, 0.0)
    # with a width it stays an exponential
    m = CorrelationModel(delta_weight=0.3, exp_weight=0.2, width=4.0)
    assert fields(m) == (0.3, 0.0, 4.0, 0.2)


def test_weightless_exponential_is_the_pure_delta():
    m = CorrelationModel(delta_weight=0.3, lag=-1.5, width=4.0)
    assert fields(m) == (0.3, -1.5, 0.0, 0.0)
    assert m == CorrelationModel(delta_weight=0.3, lag=-1.5)
    assert CorrelationModel(width=7.0) == CorrelationModel()


def test_negative_width_rejected():
    with pytest.raises(DataError):
        CorrelationModel(width=-1.0)


def exp_density(m, tau):
    """Regular part of the kernel: the exponential component's density."""
    return (m.exp_weight * math.exp(-abs(tau - m.lag) / m.width)
            / (2.0 * m.width))


def test_sync_covariance_against_double_integral():
    m = CorrelationModel(delta_weight=0.2, lag=1.5, width=4.0, exp_weight=0.9)
    for dt in (0.5, 1.5, 3.0, 12.0):
        reg = quad(lambda s: (dt - abs(s)) * exp_density(m, s),
                   -dt, dt, points=[0.0, m.lag], limit=400)[0]
        exact = reg + m.delta_weight * max(dt - abs(m.lag), 0.0)
        assert sync_covariance(m, dt) == pytest.approx(exact, rel=1e-8)


def test_sync_covariance_delta_only():
    m = CorrelationModel(delta_weight=1.0)
    np.testing.assert_allclose(sync_covariance(m, np.array([0.5, 2.0])),
                               [0.5, 2.0])


@pytest.mark.parametrize("xi", [0.5, 8.0, 40.0])
def test_triangle_exp_integral_keeps_its_digits_at_small_dt(xi,
                                                            triangle_oracle):
    # dt/xi from 1e-9 up past the switch to the cancelling closed form, with
    # centres inside, at and beyond the horizon; the closed form lost
    # 1.8e-7 relative at dt/xi = 2.5e-5
    ratios = [1e-9, 1e-6, 2.5e-5, 2e-4, 0.999 * _SMALL_DT, _SMALL_DT, 0.01]
    for r in ratios:
        dt = r * xi
        for center in (0.0, 0.3 * dt, -dt, 1.7 * dt, 0.5 * xi, -3.0 * xi):
            got = float(triangle_exp_integral(dt, center, xi))
            want = triangle_oracle(dt, center, xi)
            # above the switch the old closed form stays, at eps (xi/dt)^2
            tol = 1e-14 if r < _SMALL_DT else 1e-15 / r ** 2
            assert abs(got - want) <= tol * abs(want), (r, center)


def test_triangle_exp_integral_is_elementwise_across_the_switch():
    xi = 10.0
    dt = np.array([1e-4, 0.5, 2e-3, 5.0])
    center = np.array([0.0, 1.0, 3.0, -2.0])
    np.testing.assert_array_equal(
        triangle_exp_integral(dt, center, xi),
        [float(triangle_exp_integral(d, c, xi)) for d, c in zip(dt, center)])


def test_model_pair_rejects_lagged_auto():
    with pytest.raises(DataError):
        ModelPair(cross=CorrelationModel(delta_weight=0.1),
                  auto_i=CorrelationModel(delta_weight=1.0, lag=1.0),
                  auto_j=CorrelationModel(delta_weight=1.0))


def test_model_pair_rejects_negative_auto_spectrum():
    with pytest.raises(DataError):
        ModelPair(cross=CorrelationModel(),
                  auto_i=CorrelationModel(delta_weight=0.1, width=2.0,
                                          exp_weight=-0.5),
                  auto_j=CorrelationModel(delta_weight=1.0))


def test_model_pair_rejects_excess_cross_mass():
    with pytest.raises(DataError, match="on the test grid"):
        ModelPair(cross=CorrelationModel(delta_weight=1.5),
                  auto_i=CorrelationModel(delta_weight=1.0),
                  auto_j=CorrelationModel(delta_weight=1.0))


def test_model_pair_rejects_rho_beyond_one_past_the_test_grid():
    # auto masses 1 - 0.9 = 0.1 and a cross mass of 0.1005: rho is 0.995 at
    # the end of the test grid (1e3 x the 10 s width) and tends to 1.005
    with pytest.raises(DataError, match="as dt -> infinity"):
        parse_model_text("""
            cross.c=0.1005
            cross.xi=10
            auto_i.a=1
            auto_i.b=-0.9
            auto_i.xi=10
            auto_j.a=1
            auto_j.b=-0.9
            auto_j.xi=10
        """)


@settings(max_examples=60, deadline=None)
@given(a_i=st.floats(0.2, 5.0), a_j=st.floats(0.2, 5.0),
       r=st.floats(-0.95, 0.95), xi=st.floats(0.1, 50.0),
       dt=st.floats(1e-3, 1e4))
def test_sync_rho_bounded(a_i, a_j, r, xi, dt):
    cross = CorrelationModel(width=xi,
                             exp_weight=r * math.sqrt(a_i * a_j))
    pair = ModelPair(cross=cross,
                     auto_i=CorrelationModel(delta_weight=a_i * 0.1,
                                             width=xi, exp_weight=a_i),
                     auto_j=CorrelationModel(delta_weight=a_j * 0.1,
                                             width=xi, exp_weight=a_j))
    assert abs(sync_rho(pair, dt)) <= 1.0 + 1e-9


def test_parse_model_text_round_trip():
    pair = parse_model_text("""
        # comment
        cross.c = 0.4
        cross.tau = 2
        cross.xi = 8
        auto_i.a = 1
        auto_i.b = 0.5
        auto_i.xi = 8
        auto_j.a = 1
    """)
    assert pair.cross.exp_weight == pytest.approx(0.4)
    assert pair.cross.lag == pytest.approx(2.0)
    assert pair.auto_i.exp_weight == pytest.approx(0.5)
    assert pair.auto_j.delta_weight == pytest.approx(1.0)


def test_parse_model_text_delta_cross_when_xi_zero():
    pair = parse_model_text("cross.c=0.3\nauto_i.a=1\nauto_j.a=1\n")
    assert pair.cross.delta_weight == pytest.approx(0.3)
    assert pair.cross.width == 0.0


@pytest.mark.parametrize("text", [
    "cross.c 0.3",
    "cross.c=abc",
    "unknown.key=1",
])
def test_parse_model_text_errors(text):
    with pytest.raises(DataError):
        parse_model_text(text + "\nauto_i.a=1\nauto_j.a=1\n")
