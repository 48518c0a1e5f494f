import math

import numpy as np
import pytest

from fliess import Series, symexpr as se
from fliess.errors import EvaluationError, SimulationError
from fliess.inversion import TaylorOutput, left_invert, tracking_error_series
from fliess.realization import (
    _TABLE_CACHE,
    ControlSignal,
    Realization,
    Trajectory,
    fliess_eval,
    generating_series,
    growth_estimate,
    lie_derivative,
    rk4_simulate,
    taylor_outputs,
    uniform_grid,
)
from fliess.vehicle import (
    CarParams,
    SectionInit,
    augmented_realization,
    car_realization,
    solve_first_order_match,
)


def double_integrator(z10=0.3, z20=-1.2):
    z2 = se.var(1)
    return Realization(
        fields=[[z2, se.ZERO], [se.ZERO, se.ONE]],
        outputs=[se.var(0)],
        z0=(z10, z20),
    )


def bilinear_pair():
    # dz1 = u1, dz2 = z1 u2, y = z2
    return Realization(
        fields=[[se.ZERO, se.ZERO], [se.ONE, se.ZERO], [se.ZERO, se.var(0)]],
        outputs=[se.var(1)],
        z0=(0.0, 0.0),
    )


class TestLieDerivative:
    def test_hand_case(self, rng):
        z1, z2 = se.var(0), se.var(1)
        h = z1**2 * z2
        g = [z2, -z1]
        ld = lie_derivative(g, h)
        for pt in rng.uniform(-1, 1, size=(6, 2)):
            want = 2 * pt[0] * pt[1] * pt[1] - pt[0] ** 3
            assert se.evaluate(ld, pt) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_field_component_skipped(self):
        h = se.sin(se.var(0))
        assert lie_derivative([se.ZERO, se.ZERO], h).is_const(0.0)


class TestGeneratingSeries:
    def test_double_integrator_is_exact_polynomial(self):
        c = generating_series(double_integrator(0.3, -1.2), 6)
        want = Series(2, 6, {(): 0.3, (0,): -1.2, (0, 1): 1.0})
        assert c[0] == want

    def test_word_letter_order(self):
        # iterated integral of u1 inside u2 must land on the word (2, 1)
        c = generating_series(bilinear_pair(), 4)[0]
        terms = c.terms_dict()
        assert terms == {(2, 1): 1.0}

    def test_pole_raises_evaluation_error(self):
        # dz1 = 1/z1 has a pole at the initial state z1 = 0
        r = Realization(fields=[[se.ONE / se.var(0)]], outputs=[se.var(0)], z0=(0.0,))
        with pytest.raises(EvaluationError):
            generating_series(r, 3)

    def test_car_series_equals_validated_construction(self):
        c = generating_series(augmented_realization((0.4, -0.3, 0.2, 0.5, 1.7)), 8)
        for comp in c:
            checked = Series(comp.alphabet_size, comp.max_degree, comp.terms_dict())
            assert (checked.alphabet_size, checked.max_degree) == (3, 8)
            assert list(checked.terms_dict().items()) == list(comp.terms_dict().items())

    def test_cache_gauges_count_entries(self):
        # the per-layer cache gauges of perfbench read these by name
        generating_series(double_integrator(), 3)
        for cache in (_TABLE_CACHE, se._TABLE, se._DIFF_CACHE):
            assert len(cache) > 0

    def test_alphabet_and_degree(self):
        c = generating_series(double_integrator(), 3)
        assert c.alphabet_size == 2
        assert c.max_degree == 3
        with pytest.raises(ValueError):
            generating_series(double_integrator(), -1)

    def test_car_low_order_closed_forms(self, rng):
        z30, z40 = 0.35, -0.4
        init = (1.5, -0.8, z30, z40)
        params = CarParams()
        c = generating_series(car_realization(init, params), 3)
        co = math.cos(z30 + z40)
        si = math.sin(z30 + z40)
        big_t = math.sin((1 - params.k) * z40) / (
            params.length * math.cos(params.k * z40)
        )
        t1 = c[0].terms_dict()
        t2 = c[1].terms_dict()
        assert t1[()] == pytest.approx(1.5)
        assert t1[(1,)] == pytest.approx(co, rel=1e-12)
        assert (2,) not in t1
        assert t1[(1, 1)] == pytest.approx(-si * big_t, rel=1e-12)
        assert t1[(1, 2)] == pytest.approx(-si, rel=1e-12)
        assert (2, 1) not in t1
        assert t2[(1,)] == pytest.approx(si, rel=1e-12)
        assert t2[(1, 1)] == pytest.approx(co * big_t, rel=1e-12)
        assert t2[(1, 2)] == pytest.approx(co, rel=1e-12)

    def test_extended_car_decoupling_words(self):
        z30, z40, z50 = 0.2, 0.5, 1.7
        init = (0.0, 0.0, z30, z40, z50)
        c = generating_series(augmented_realization(init), 3)
        co = math.cos(z30 + z40)
        si = math.sin(z30 + z40)
        params = CarParams()
        big_t = math.sin((1 - params.k) * z40) / math.cos(params.k * z40)
        t1 = c[0].terms_dict()
        t2 = c[1].terms_dict()
        assert t1[(0,)] == pytest.approx(z50 * co, rel=1e-12)
        assert t2[(0,)] == pytest.approx(z50 * si, rel=1e-12)
        assert (1,) not in t1 and (2,) not in t1
        assert t1[(0, 1)] == pytest.approx(-z50 * si, rel=1e-12)
        assert t1[(0, 2)] == pytest.approx(co, rel=1e-12)
        assert t2[(0, 1)] == pytest.approx(z50 * co, rel=1e-12)
        assert t2[(0, 2)] == pytest.approx(si, rel=1e-12)
        assert t1[(0, 0)] == pytest.approx(-(z50**2) * si * big_t, rel=1e-12)
        assert t2[(0, 0)] == pytest.approx(z50**2 * co * big_t, rel=1e-12)
        # words (1, 0) and (2, 0) start from states the inputs cannot move
        assert (1, 0) not in t1 and (2, 0) not in t1


class TestGrowthEstimate:
    def test_bound_holds_on_own_series(self):
        init = (0.4, -0.3, 0.2, 0.5, 1.7)
        c = generating_series(augmented_realization(init), 5)
        k_c, m_c = growth_estimate(c)
        for comp in c:
            for w, v in comp.terms_dict().items():
                bound = k_c * m_c ** len(w) * math.factorial(len(w))
                assert abs(v) <= bound * (1 + 1e-12)

    def test_scalar_input_accepted(self, rng):
        s = Series(2, 3, {(): 2.0, (0, 1): -5.0})
        k_c, m_c = growth_estimate(s)
        assert k_c == 2.0 and m_c >= 1.0


class TestControlSignal:
    def test_polynomial_eval(self):
        u = ControlSignal.from_monomial([[1.0, 0.0, 3.0], [0.5]], horizon=2.0)
        t = np.array([0.0, 0.5, 1.0])
        vals = u.eval(t)
        assert vals.shape == (2, 3)
        assert np.allclose(vals[0], 1.0 + 3.0 * t**2)
        assert np.allclose(vals[1], 0.5)

    def test_taylor_divides_factorials(self):
        u = ControlSignal.from_taylor([[0.0, 0.0, 4.0]], horizon=1.0)
        # series convention: u(t) = 4 t^2 / 2!
        assert u.eval(1.0)[0] == pytest.approx(2.0)

    def test_constant(self):
        u = ControlSignal.constant([1.5, 0.8], horizon=0.25)
        assert np.allclose(u.eval(0.2), [1.5, 0.8])
        assert u.n_inputs == 2

    def test_samples_interpolate(self):
        u = ControlSignal.from_samples([0.0, 1.0], [[0.0, 2.0]])
        assert u.eval(0.25)[0] == pytest.approx(0.5)
        assert u.horizon == 1.0

    def test_samples_shape_check(self):
        with pytest.raises(ValueError):
            ControlSignal.from_samples([0.0, 1.0], [[0.0, 1.0, 2.0]])


class TestFliessEval:
    def test_double_integrator_cubic(self):
        c = generating_series(double_integrator(0.0, 0.0), 4)[0]
        grid = uniform_grid(0.5, density=8000)
        u = ControlSignal.from_monomial([[0.0, 1.0]], horizon=0.5)  # u = t
        y = fliess_eval(c, u, grid)
        assert np.max(np.abs(y - grid**3 / 6.0)) < 1e-7

    def test_drift_only_word_is_time_power(self):
        s = Series.monomial((0, 0, 0), 1, 3)
        grid = uniform_grid(1.0, density=4000)
        y = fliess_eval(s, np.zeros((0, grid.size)), grid)
        assert np.max(np.abs(y - grid**3 / 6.0)) < 1e-7

    def test_vector_series_gives_columns(self):
        r = bilinear_pair()
        r = Realization(fields=r.fields, outputs=[se.var(0), se.var(1)], z0=r.z0)
        c = generating_series(r, 4)
        grid = uniform_grid(0.5, density=4000)
        u = ControlSignal.constant([1.0, 1.0], horizon=0.5)
        y = fliess_eval(c, u, grid)
        assert y.shape == (grid.size, 2)
        assert np.max(np.abs(y[:, 0] - grid)) < 1e-7
        assert np.max(np.abs(y[:, 1] - grid**2 / 2.0)) < 1e-7

    def test_shape_mismatch_raises(self):
        c = generating_series(bilinear_pair(), 2)
        grid = uniform_grid(0.5)
        with pytest.raises(ValueError):
            fliess_eval(c, np.ones((1, grid.size)), grid)


def literal_rk4_simulate(realization, u, horizon, steps):
    """RK4 on numpy state vectors with the input evaluated at every stage."""
    n = realization.n_states
    m = realization.n_inputs
    raw = se.compile_expr([e for col in realization.fields for e in col], n)
    out_fn = se.compile_expr(list(realization.outputs), n)

    def field_fn(z, uv):
        vals = raw(z)
        out = vals[:n]
        for i in range(m):
            gi = vals[(i + 1) * n : (i + 2) * n]
            ui = uv[i]
            out = [a + ui * b for a, b in zip(out, gi)]
        return out

    def rhs(t, z):
        uv = u.eval(t) if m else np.zeros(0)
        return np.array(field_fn(z, uv))

    h = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    states = np.empty((steps + 1, n))
    states[0] = realization.z0
    z = np.array(realization.z0, dtype=float)
    for k in range(steps):
        t = times[k]
        k1 = rhs(t, z)
        k2 = rhs(t + 0.5 * h, z + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, z + 0.5 * h * k2)
        k4 = rhs(t + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise SimulationError(times[k + 1])
        states[k + 1] = z
    outputs = np.array([out_fn(s) for s in states])
    return Trajectory(times=times, states=states, outputs=outputs)


def assert_same_trajectory(realization, u, horizon, steps):
    got = rk4_simulate(realization, u, horizon, steps)
    want = literal_rk4_simulate(realization, u, horizon, steps)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.outputs, want.outputs)


class TestRk4AgainstLiteral:
    def test_extended_car_taylor_input(self):
        r = augmented_realization((0.4, -0.3, 0.2, 0.5, 1.7))
        u = ControlSignal.from_taylor(
            [[0.3, -1.2, 4.0, 0.5, -7.0, 2.0, 11.0], [1.1, 0.2, -3.0, 6.5, 0.1, -9.0, 3.0]],
            horizon=0.02,
        )
        assert_same_trajectory(r, u, 0.02, 80)

    def test_sampled_input(self):
        r = car_realization((0.0, 0.0, 0.1, 0.2))
        times = np.linspace(0.0, 0.3, 13)  # sample points fall between stage times
        u = ControlSignal.from_samples(times, [1.0 + np.sin(times), 0.3 * np.cos(5.0 * times)])
        assert_same_trajectory(r, u, 0.3, 50)

    def test_drift_only_realization(self):
        r = Realization(fields=[[-se.power(se.var(0), 2)]], outputs=[se.var(0)], z0=(1.0,))
        assert_same_trajectory(r, None, 1.0, 40)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_zero_division_maps_to_step_end(self):
        # dz1 = 1/z2 with z2 held at 0: the first stage divides by zero
        r = Realization(
            fields=[[se.ONE / se.var(1), se.ZERO]], outputs=[se.var(0)], z0=(0.0, 0.0)
        )
        for simulate in (rk4_simulate, literal_rk4_simulate):
            with pytest.raises(SimulationError, match="non-finite state at t=0.1") as info:
                simulate(r, None, 1.0, 10)
            assert info.value.time == np.linspace(0.0, 1.0, 11)[1]


class TestSimulation:
    def test_rk4_fourth_order_convergence(self):
        # dz = -z^2 with z(0) = 1 has closed form 1/(1+t)
        r = Realization(
            fields=[[-se.power(se.var(0), 2)]], outputs=[se.var(0)], z0=(1.0,)
        )
        errs = []
        for steps in (20, 40):
            traj = rk4_simulate(r, None, 1.0, steps)
            errs.append(abs(traj.final_state()[0] - 0.5))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises(self):
        r = Realization(
            fields=[[se.power(se.var(0), 2)]], outputs=[se.var(0)], z0=(3.0,)
        )
        for simulate in (rk4_simulate, literal_rk4_simulate):
            with pytest.raises(SimulationError, match="non-finite state at t=0.6") as info:
                simulate(r, None, 2.0, 20)
            assert info.value.time == np.linspace(0.0, 2.0, 21)[6]  # t = 0.6

    def test_car_against_fliess_series(self):
        init = (0.0, 0.0, 0.0, 0.2)
        r = car_realization(init)
        u = ControlSignal.constant([1.0, 0.3], horizon=0.1)
        traj = rk4_simulate(r, u, 0.1, 200)
        c = generating_series(r, 6)
        grid = uniform_grid(0.1, density=2000)
        y = fliess_eval(c, u, grid)
        assert abs(y[-1, 0] - traj.outputs[-1, 0]) < 1e-8
        assert abs(y[-1, 1] - traj.outputs[-1, 1]) < 1e-8

    def test_csv_round_trip(self, tmp_path):
        r = double_integrator(0.0, 1.0)
        u = ControlSignal.constant([0.0], horizon=1.0)
        traj = rk4_simulate(r, u, 1.0, 10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert set(data.dtype.names) == {"t", "z1", "z2", "y1"}
        assert np.allclose(data["z1"], traj.states[:, 0])
        assert np.allclose(data["y1"], traj.outputs[:, 0])


def every_node_kind(rng, z0):
    """Three states, two inputs; the fields and outputs use every node kind."""
    z1, z2, z3 = se.var(0), se.var(1), se.var(2)
    a = [float(v) for v in rng.uniform(0.3, 1.2, size=6)]
    g0 = [a[0] * se.sin(z2) + a[1] * z3, se.cos(z1) * z3, se.tan(a[2] * z1)]
    g1 = [se.ONE, se.ZERO, z1**2]
    g2 = [se.ZERO, se.div(a[3], 2.0 + z2), (1.0 + z3 * z3) ** -1]
    outputs = [z1 + a[4] * z2 * z3, z2 - a[5] * se.cos(z3)]
    return Realization([g0, g1, g2], outputs, z0)


def composed_outputs(realization, c_u, degree):
    """Output Taylor coefficients from the general composition c o c_u."""
    c = generating_series(realization, degree)
    return -tracking_error_series(c, c_u, TaylorOutput([[0.0]] * len(c)), degree)


class TestTaylorOutputs:
    """The Taylor-mode expansion of the realization against c o c_u."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_node_kind_matches_composition(self, seed):
        rng = np.random.default_rng(seed)
        z0 = rng.uniform(-0.5, 0.5, size=3)
        if seed == 2:
            z0[0] = 0.0  # z1^2 has a zero base
        r = every_node_kind(rng, z0)
        c_u = TaylorOutput(list(rng.normal(size=(2, 4))))
        want = composed_outputs(r, c_u, 5)
        got = taylor_outputs(r, c_u.coeffs, 5)
        assert got.shape == (2, 6)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))

    def test_car_matches_composition(self, rng):
        r = augmented_realization((0.3, -0.2, 0.7, 0.25, 1.5))
        c_u = TaylorOutput(list(rng.normal(size=(2, 7))))
        want = composed_outputs(r, c_u, 8)
        got = taylor_outputs(r, c_u.coeffs, 8)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))

    def test_car_section_at_degree_8_6(self):
        # criterion 6's section: the inverted inputs reach ~2e11 in series
        # convention, so every residual is rounding noise in both
        # computations: far below the gate's 1e-6 * scale through the
        # inversion degree, and within rounding of the inputs' size past
        # it, where the composition's summation order also moves it
        z40, z50 = solve_first_order_match((10.75, 14.40), 1.5)
        r = augmented_realization(SectionInit(-1.5, 9.5, 1.5, z40, z50))
        c = generating_series(r, 8)
        c_y = TaylorOutput([[-1.5, 10.75, -28.15, 185.15], [9.5, 14.40, 13.07, -24.89]])
        c_u = left_invert(c, c_y, 6)
        scale = 185.15
        composed = tracking_error_series(c, c_u, c_y, 8)
        jets = c_y.padded(8) - taylor_outputs(r, c_u.coeffs, 8)
        assert np.max(np.abs(jets[:, :7])) <= 1e-7 * scale
        assert np.max(np.abs(composed[:, :7] - jets[:, :7])) <= 1e-7 * scale
        assert np.max(np.abs(composed - jets)) <= 1e-12 * np.max(np.abs(c_u.coeffs))

    def test_drift_only_exponential(self):
        # dz = z, y = z: y^(k)(0) = z0 for every k
        r = Realization(fields=[[se.var(0)]], outputs=[se.var(0)], z0=(1.5,))
        assert taylor_outputs(r, [], 6).tolist() == [[1.5] * 7]

    def test_zero_denominator_raises(self):
        # dz1 = 1/(z1 - z2) starting on the pole
        z1, z2 = se.var(0), se.var(1)
        r = Realization(
            fields=[[1.0 / (z1 - z2), se.ZERO], [se.ZERO, se.ONE]], outputs=[z1], z0=(0.5, 0.5)
        )
        with pytest.raises(EvaluationError, match="zero denominator"):
            taylor_outputs(r, [[1.0]], 4)

    def test_tan_pole_raises(self):
        # dz1 = tan(z1) from the float nearest pi/2: tan is 1.6e16 there,
        # and the jets overflow by order 10
        r = Realization(fields=[[se.tan(se.var(0))]], outputs=[se.var(0)], z0=(math.pi / 2,))
        with pytest.raises(EvaluationError, match="non-finite"):
            taylor_outputs(r, [], 12)


class TestRealizationObject:
    def test_field_shape_validation(self):
        with pytest.raises(ValueError):
            Realization(fields=[[se.ZERO], [se.ONE, se.ZERO]], outputs=[se.var(0)], z0=(0.0,))

    def test_with_initial_state(self):
        r = double_integrator(0.0, 0.0)
        r2 = r.with_initial_state((5.0, 6.0))
        assert r2.z0 == (5.0, 6.0)
        assert r2.fields == r.fields

    def test_json_round_trip(self):
        r = augmented_realization((0.1, -0.2, 0.3, 0.4, 1.5))
        r2 = Realization.from_json_dict(r.to_json_dict())
        assert r2.z0 == r.z0
        c1 = generating_series(r, 4)
        c2 = generating_series(r2, 4)
        assert c1.max_abs_diff(c2) < 1e-12
