import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fliess.inversion
from fliess import (
    MatrixSeries,
    Series,
    VectorSeries,
    compose,
    group_inverse,
    shuffle,
    shuffle_inverse,
)
from fliess.errors import (
    ConvergenceError,
    MapFormatError,
    MatchingConditionError,
    NoRelativeDegreeError,
    NonFiniteError,
    SingularConstantTermError,
    SingularDecouplingError,
)
from fliess.inversion import (
    RelativeDegree,
    TaylorOutput,
    left_invert,
    relative_degree,
    tracking_error_series,
)
from fliess.realization import generating_series
from fliess.series import constant_term_inverse, drift_word, left_shift
from fliess.vehicle import augmented_realization

from test_realization import double_integrator


def di_series(z10=0.3, z20=-1.2, degree=6):
    return generating_series(double_integrator(z10, z20), degree)


def car_series(init=(0.3, -0.5, 0.2, 0.4, 1.6), degree=6):
    return generating_series(augmented_realization(init), degree)


class TestTaylorOutput:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TaylorOutput([])
        with pytest.raises(ValueError):
            TaylorOutput([[1.0, 2.0], [1.0]])

    def test_eval_uses_series_convention(self):
        y = TaylorOutput([[1.0, 0.0, 4.0]])
        # y(t) = 1 + 4 t^2/2!
        assert y.eval(1.0)[0] == pytest.approx(3.0)
        assert y.degree == 2 and y.n_channels == 1

    def test_channel_round_trip(self):
        y = TaylorOutput([[0.5, -1.0, 2.0], [0.0, 3.0, 0.0]])
        s = y.channel(0, 3, 4)
        assert s.coeff(()) == 0.5
        assert s.coeff((0,)) == -1.0
        assert s.coeff((0, 0)) == 2.0
        back = TaylorOutput.from_series(y.as_vector_series(3, 4), 2)
        for a, b in zip(back.coeffs, y.coeffs):
            assert np.allclose(a, b)

    def test_json_round_trip(self):
        y = TaylorOutput([[0.5, -1.0], [2.0, 0.25]])
        y2 = TaylorOutput.from_json_dict(y.to_json_dict())
        for a, b in zip(y.coeffs, y2.coeffs):
            assert np.allclose(a, b)

    def test_json_rejects_unknown_convention(self):
        with pytest.raises(MapFormatError):
            TaylorOutput.from_json_dict({"outputs": [[1.0]], "convention": "monomial"})
        with pytest.raises(MapFormatError):
            TaylorOutput.from_json_dict({"wrong": 1})


class TestRelativeDegree:
    def test_double_integrator(self):
        rd = relative_degree(di_series())
        assert rd.orders == [2]
        assert np.allclose(rd.decoupling, [[1.0]])

    def test_extended_car(self):
        z30, z40, z50 = 0.2, 0.4, 1.6
        rd = relative_degree(car_series((0.3, -0.5, z30, z40, z50)))
        assert rd.orders == [2, 2]
        co, si = math.cos(z30 + z40), math.sin(z30 + z40)
        want = [[-z50 * si, co], [z50 * co, si]]
        assert np.allclose(rd.decoupling, want, rtol=1e-12)
        assert np.linalg.det(rd.decoupling) == pytest.approx(-z50, rel=1e-12)

    def test_drift_only_component_rejected(self):
        c = VectorSeries([Series(2, 4, {(0,): 1.0, (0, 0): 2.0})])
        with pytest.raises(NoRelativeDegreeError):
            relative_degree(c)

    def test_nonsquare_rejected(self):
        c = VectorSeries([Series(3, 4, {(1,): 1.0})])
        with pytest.raises(SingularDecouplingError):
            relative_degree(c)

    def test_zero_speed_car_is_singular(self):
        with pytest.raises(SingularDecouplingError):
            relative_degree(car_series((0.0, 0.0, 0.2, 0.4, 0.0)))


class TestLeftInvert:
    def test_double_integrator_recovers_acceleration(self, rng):
        z10, z20 = 0.3, -1.2
        c = di_series(z10, z20, degree=8)
        y = np.zeros(7)
        y[0], y[1] = z10, z20
        y[2:] = rng.uniform(-2, 2, size=5)
        u = left_invert(c, TaylorOutput([y]), 4)
        # series-convention second derivative is a coefficient shift
        assert np.allclose(u.coeffs[0], y[2:], atol=1e-12)

    def test_matching_condition_enforced(self):
        c = di_series(0.3, -1.2, degree=6)
        bad = TaylorOutput([[0.9, -1.2, 1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(MatchingConditionError):
            left_invert(c, bad, 3)

    def test_degree_budget_enforced(self):
        c = di_series(degree=5)
        y = TaylorOutput([[0.3, -1.2, 1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            left_invert(c, y, 4)

    def test_nonsquare_plant_rejected(self):
        c = VectorSeries([Series(3, 6, {(0, 1): 1.0, (): 1.0})])
        y = TaylorOutput([[1.0, 0.0, 1.0]])
        with pytest.raises(SingularDecouplingError):
            left_invert(c, y, 1)

    def test_channel_count_checked(self):
        c = di_series(degree=6)
        y = TaylorOutput([[0.3, -1.2, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            left_invert(c, y, 1)

    def test_car_round_trip_through_requested_degree(self, rng):
        degree = 4
        c = car_series(degree=degree + 2)
        u_true = rng.uniform(-1.5, 1.5, size=(2, degree + 1))
        u_embed = VectorSeries(
            [Series.from_taylor(row, 3, degree + 2) for row in u_true]
        )
        y_ref = TaylorOutput.from_series(compose(c, u_embed, degree + 2), degree + 2)
        u_rec = left_invert(c, y_ref, degree)
        for i in range(2):
            assert np.allclose(u_rec.coeffs[i], u_true[i], rtol=1e-9, atol=1e-9)

    def test_tracking_error_vanishes_through_degree(self, rng):
        degree = 3
        c = car_series(degree=degree + 2)
        u_true = rng.uniform(-1, 1, size=(2, degree + 1))
        u_embed = VectorSeries(
            [Series.from_taylor(row, 3, degree + 2) for row in u_true]
        )
        y_ref = TaylorOutput.from_series(compose(c, u_embed, degree + 2), degree + 2)
        u_rec = left_invert(c, y_ref, degree)
        err = tracking_error_series(c, u_rec, y_ref, degree)
        assert np.max(np.abs(err)) < 1e-9
        # a perturbed input must show a nonzero coefficient error
        u_bad = TaylorOutput([u_rec.coeffs[0] + 0.1, u_rec.coeffs[1]])
        err_bad = tracking_error_series(c, u_bad, y_ref, degree)
        assert np.max(np.abs(err_bad)) > 1e-4


def literal_left_invert(c, c_y, degree):
    """The inversion formula computed in the full algebra: the natural part of
    the group inverse of C^sh-1 sh w (no precondition checks)."""
    m = c.alphabet_size - 1
    orders = relative_degree(c).orders
    c_matrix = MatrixSeries(
        [
            [left_shift(drift_word(r - 1) + (j,), c[i]).truncate(degree) for j in range(1, m + 1)]
            for i, r in enumerate(orders)
        ]
    )
    w = VectorSeries(
        [
            left_shift(drift_word(r), c[i] - c_y.channel(i, c.alphabet_size, c.max_degree)).truncate(degree)
            for i, r in enumerate(orders)
        ]
    )
    e = group_inverse(shuffle(shuffle_inverse(c_matrix, degree), w, degree), degree)
    return np.array([e[j].taylor_coeffs(degree + 1) for j in range(m)])


def random_square_plant(rng, orders, degree, decoupling=None, n_forced=10):
    """Plant series with the given vector relative degree plus a matching reference.

    Component i carries a full drift part, the linear words x0^(r_i-1) x_j
    with coefficients decoupling[i][j-1], and random forced words of
    length at least r_i + 1 that start with x0^(r_i-1).
    """
    m = len(orders)
    top = degree + max(orders)
    if decoupling is None:
        decoupling = rng.uniform(-2.0, 2.0, size=(m, m)) + 2.0 * np.eye(m)
    comps, ref = [], []
    for i, r in enumerate(orders):
        terms = {drift_word(k): rng.uniform(-1.0, 1.0) for k in range(top + 1)}
        for _ in range(n_forced if top - r >= 1 else 0):
            tail = rng.integers(0, m + 1, size=rng.integers(2, top - r + 2))
            if not tail.any():
                tail[0] = rng.integers(1, m + 1)
            terms[drift_word(r - 1) + tuple(int(a) for a in tail)] = rng.uniform(-1.0, 1.0)
        for j in range(m):
            terms[drift_word(r - 1) + (j + 1,)] = decoupling[i, j]
        comps.append(Series(m + 1, top, terms))
        y = rng.uniform(-1.0, 1.0, size=top + 1)
        y[:r] = [terms[drift_word(k)] for k in range(r)]  # matching conditions
        ref.append(y)
    return VectorSeries(comps), TaylorOutput(ref)


class TestDriftOnlyInversion:
    @settings(max_examples=40, deadline=None)
    @given(
        orders=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        degree=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_literal_formula_on_random_plants(self, orders, degree, seed):
        rng = np.random.default_rng(seed)
        c, c_y = random_square_plant(rng, orders, degree)
        assert relative_degree(c).orders == orders
        got = np.array(left_invert(c, c_y, degree).coeffs)
        want = literal_left_invert(c, c_y, degree)
        assert got.shape == want.shape == (len(orders), degree + 1)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * max(1.0, np.max(np.abs(want))))

    def test_equals_literal_formula_on_car(self):
        c = car_series(degree=6)
        y = c.natural_part()
        y_ref = TaylorOutput.from_series(y, 6)
        y_ref.coeffs[0][2:] += [0.5, -1.0, 0.25, 2.0, -0.5]
        y_ref.coeffs[1][2:] += [-0.3, 0.7, 1.5, -2.0, 0.1]
        got = np.array(left_invert(c, y_ref, 4).coeffs)
        want = literal_left_invert(c, y_ref, 4)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))

    def test_singular_decoupling_rejected(self, rng):
        c, c_y = random_square_plant(rng, [1, 2], 3, decoupling=np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(SingularDecouplingError):
            left_invert(c, c_y, 3)

    def test_singular_constant_term_rejected(self, rng, monkeypatch):
        c, c_y = random_square_plant(rng, [1, 2], 3, decoupling=np.array([[1.0, 2.0], [0.5, 1.0]]))
        # past the decoupling rank test, the shuffle inverse's own check still holds
        monkeypatch.setattr(
            fliess.inversion,
            "relative_degree",
            lambda c: RelativeDegree(orders=[1, 2], decoupling=np.array([[1.0, 2.0], [0.5, 1.0]])),
        )
        with pytest.raises(SingularConstantTermError):
            left_invert(c, c_y, 3)
        with pytest.raises(SingularConstantTermError):
            constant_term_inverse(np.zeros((2, 2)))

    def test_unsettled_fixed_point_raises(self, rng, monkeypatch):
        c, c_y = random_square_plant(rng, [2, 1], 3)
        sweep = fliess.inversion._drift_sweep
        calls = []

        def drifting(plan, u):
            calls.append(1)
            return sweep(plan, u) + len(calls)

        monkeypatch.setattr(fliess.inversion, "_drift_sweep", drifting)
        with pytest.raises(ConvergenceError):
            left_invert(c, c_y, 3)

    def test_overflow_raises_non_finite(self):
        # u = -w / a with w = -1e300 and a = 1e-10 overflows
        c = VectorSeries([Series(2, 3, {(1,): 1e-10})])
        c_y = TaylorOutput([[0.0, 1e300, 0.0, 0.0]])
        with pytest.raises(NonFiniteError):
            left_invert(c, c_y, 1)
