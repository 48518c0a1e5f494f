import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliess import (
    AlphabetMismatchError,
    DeltaSeries,
    NonFiniteError,
    Series,
    VectorSeries,
    compose,
    feedback_product,
    group_inverse,
    modified_compose,
    shuffle,
)

from conftest import random_series, random_vector


def unit_component(alphabet_size=2, degree=5):
    return VectorSeries([Series.unit(alphabet_size, degree)])


class TestComposeRecursion:
    def test_drift_letters_pass_through(self, rng):
        d = random_vector(rng, 2, 5)
        for k in range(4):
            c = Series.monomial((0,) * k, 3, 5)
            assert compose(c, d, 5) == c

    def test_single_input_letter_against_unit(self):
        x1 = Series.monomial((1,), 2, 5)
        assert compose(x1, unit_component(), 5) == Series.monomial((0,), 2, 5)

    def test_repeated_letter_against_unit(self):
        x1x1 = Series.monomial((1, 1), 2, 5)
        assert compose(x1x1, unit_component(), 5) == Series.monomial((0, 0), 2, 5)

    def test_input_letter_general(self, rng):
        # x_i eta -> x0 (d_i sh (eta o d))
        d = random_vector(rng, 2, 5)
        c = Series.monomial((2,), 3, 5)
        want = Series(3, 5, {(0,) + w: v for w, v in d[1].truncate(4).terms_dict().items()})
        assert compose(c, d, 5).max_abs_diff(want) < 1e-14

    def test_empty_word_to_unit(self, rng):
        d = random_vector(rng, 2, 5)
        assert compose(Series.unit(3, 5), d, 5) == Series.unit(3, 5)

    def test_left_linearity_exact(self, rng):
        d = random_vector(rng, 2, 4)
        c1 = random_series(rng, 3, 4)
        c2 = random_series(rng, 3, 4)
        lhs = compose(2.0 * c1 + (-3.5) * c2, d, 4)
        rhs = 2.0 * compose(c1, d, 4) + (-3.5) * compose(c2, d, 4)
        assert lhs.max_abs_diff(rhs) == 0.0

    def test_associative(self, rng):
        for _ in range(5):
            c = random_series(rng, 3, 4, n_terms=8)
            d = random_vector(rng, 2, 4, n_terms=8)
            g = random_vector(rng, 2, 4, n_terms=8)
            lhs = compose(compose(c, d, 4), g, 4)
            rhs = compose(c, VectorSeries([compose(di, g, 4) for di in d]), 4)
            assert lhs.max_abs_diff(rhs) < 1e-10 * (1.0 + lhs.max_abs_coeff())

    def test_exchange_with_shuffle(self, rng):
        a = random_series(rng, 3, 4, n_terms=8)
        b = random_series(rng, 3, 4, n_terms=8)
        g = random_vector(rng, 2, 4, n_terms=8)
        lhs = compose(shuffle(a, b, 4), g, 4)
        rhs = shuffle(compose(a, g, 4), compose(b, g, 4), 4)
        assert lhs.max_abs_diff(rhs) < 1e-10 * (1.0 + lhs.max_abs_coeff())

    def test_component_count_mismatch(self, rng):
        c = random_series(rng, 4, 3)
        d = random_vector(rng, 2, 3)
        with pytest.raises(AlphabetMismatchError):
            compose(c, d, 3)

    def test_vector_left_operand(self, rng):
        c = random_vector(rng, 2, 4)
        d = random_vector(rng, 2, 4)
        for op in (compose, modified_compose):
            out = op(c, d, 4)
            assert isinstance(out, VectorSeries) and len(out) == 2
            assert out[0] == op(c[0], d, 4)
            assert out[1] == op(c[1], d, 4)


def left_operands(c):
    """The scalar c, and c inside a vector."""
    return (c, VectorSeries([c, c]))


class TestNonFinite:
    def test_overflow_raises(self):
        # the image of x1 holds 1e300 x0, so x0 gets 1e300 * 1e300
        c = Series(2, 2, {(1,): 1e300})
        d = VectorSeries([Series(2, 2, {(): 1e300})])
        for op in (compose, modified_compose):
            for left in left_operands(c):
                with pytest.raises(NonFiniteError, match="inf in a composition"):
                    op(left, d)

    def test_nan_raises(self):
        # x0 collects 1e300 * 1e300 from x1 and 1e300 * -1e300 from x2
        c = Series(3, 2, {(1,): 1e300, (2,): 1e300})
        d = VectorSeries([Series(3, 2, {(): 1e300}), Series(3, 2, {(): -1e300})])
        for op in (compose, modified_compose):
            for left in left_operands(c):
                with pytest.raises(NonFiniteError, match="nan in a composition"):
                    op(left, d)


class TestModifiedCompose:
    def test_zero_perturbation_is_identity(self, rng):
        c = random_series(rng, 3, 5)
        zero = VectorSeries.zero(2, 3, 5)
        assert modified_compose(c, zero, 5) == c

    def test_drift_passes_through(self, rng):
        d = random_vector(rng, 2, 5)
        c = Series.monomial((0, 0), 3, 5)
        assert modified_compose(c, d, 5) == c

    def test_single_letter_against_unit(self):
        x1 = Series.monomial((1,), 2, 5)
        want = Series(2, 5, {(1,): 1.0, (0,): 1.0})
        assert modified_compose(x1, unit_component(), 5) == want

    def test_needs_same_alphabet(self, rng):
        c = random_series(rng, 3, 4)
        d = VectorSeries([random_series(rng, 4, 4) for _ in range(3)])
        with pytest.raises(AlphabetMismatchError):
            modified_compose(c, d, 4)


class TestGroupInverse:
    def test_zero_is_identity_element(self):
        e = group_inverse(VectorSeries.zero(2, 3, 4), 4)
        assert all(comp.is_zero() for comp in e)

    def test_single_letter_alternating_prefixes(self):
        e = group_inverse(VectorSeries([Series.monomial((1,), 2, 5)]), 5)
        want = Series(
            2, 5, {(0,) * k + (1,): float((-1) ** (k + 1)) for k in range(5)}
        )
        assert e[0] == want

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_both_sides(self, seed):
        r = np.random.default_rng(seed)
        c = random_vector(r, 2, 5, n_terms=10, proper=True)
        e = group_inverse(c, 5)
        right = DeltaSeries(c).compose(DeltaSeries(e), 5)
        left = DeltaSeries(e).compose(DeltaSeries(c), 5)
        assert max(comp.max_abs_coeff() for comp in right.base) < 1e-9
        assert max(comp.max_abs_coeff() for comp in left.base) < 1e-9

    def test_nonproper_round_trip(self, rng):
        # constant terms are legal for the car's d series
        c = random_vector(rng, 2, 4, n_terms=8)
        e = group_inverse(c, 4)
        resid = DeltaSeries(c).compose(DeltaSeries(e), 4)
        assert max(comp.max_abs_coeff() for comp in resid.base) < 1e-9

    def test_component_shape_check(self, rng):
        with pytest.raises(AlphabetMismatchError):
            group_inverse(VectorSeries([random_series(rng, 3, 4)]), 4)


class TestDeltaSeries:
    def test_identity_laws(self, rng):
        a = DeltaSeries(random_vector(rng, 2, 4, proper=True))
        ident = DeltaSeries.identity(2, 4)
        assert a.compose(ident, 4).base.max_abs_diff(a.base) < 1e-12
        assert ident.compose(a, 4).base.max_abs_diff(a.base) < 1e-12

    def test_associative(self, rng):
        a = DeltaSeries(random_vector(rng, 2, 4, n_terms=6, proper=True))
        b = DeltaSeries(random_vector(rng, 2, 4, n_terms=6, proper=True))
        c = DeltaSeries(random_vector(rng, 2, 4, n_terms=6, proper=True))
        lhs = a.compose(b, 4).compose(c, 4)
        rhs = a.compose(b.compose(c, 4), 4)
        assert lhs.base.max_abs_diff(rhs.base) < 1e-9 * (1.0 + lhs.base.max_abs_coeff())

    def test_inverse_method(self, rng):
        a = DeltaSeries(random_vector(rng, 2, 4, proper=True))
        resid = a.compose(a.inverse(4), 4)
        assert max(comp.max_abs_coeff() for comp in resid.base) < 1e-9

    def test_applies_to_plain_series(self, rng):
        a = DeltaSeries(random_vector(rng, 2, 4, proper=True))
        d = random_vector(rng, 2, 4)
        out = a.compose(d, 4)
        want = d.truncate(4) + compose(a.base, d, 4)
        assert out.max_abs_diff(want) < 1e-12


class TestFeedback:
    def test_open_loop(self, rng):
        c = random_vector(rng, 2, 4)
        closed = feedback_product(c, VectorSeries.zero(2, 3, 4), 4)
        assert closed.max_abs_diff(c.truncate(4)) < 1e-12

    def test_zero_plant(self):
        c = VectorSeries.zero(2, 3, 4)
        closed = feedback_product(c, 1.0, 4)
        assert all(comp.is_zero() for comp in closed)

    def test_negative_unity_on_single_integrator(self):
        # plant y = integral of u; closed loop with u = v - y has kernel
        # exp(-t), i.e. alternating drift prefixes on x1
        x1 = Series.monomial((1,), 2, 6)
        closed = feedback_product(x1, -1.0, 6)
        want = Series(2, 6, {(0,) * k + (1,): float((-1) ** k) for k in range(6)})
        got = closed[0] if isinstance(closed, VectorSeries) else closed
        assert got.max_abs_diff(want) < 1e-12

    def test_matrix_gain_with_a_zero_entry(self, rng):
        # closed loop built by hand: the loop is gain times plant
        c = random_vector(rng, 2, 4, n_terms=8)
        gain = np.array([[2.0, 0.0], [-1.5, 0.5]])
        loop = VectorSeries([2.0 * c[0], -1.5 * c[0] + 0.5 * c[1]])
        want = modified_compose(c, group_inverse(-1.0 * loop, 4), 4)
        assert feedback_product(c, gain, 4).max_abs_diff(want) == 0.0

    def test_matrix_gain_shape_check(self, rng):
        c = random_vector(rng, 2, 4)
        with pytest.raises(ValueError):
            feedback_product(c, np.ones((2, 3)), 4)

    def test_dynamic_feedback_defining_identity(self, rng):
        # closed loop must satisfy closed = c otilde gi(-(d o c))
        c = random_vector(rng, 2, 4, n_terms=8)
        d = random_vector(rng, 2, 4, n_terms=8, proper=True)
        closed = feedback_product(c, d, 4)
        e = group_inverse(-1.0 * compose(d, c, 4), 4)
        want = modified_compose(c, e, 4)
        assert closed.max_abs_diff(want) == 0.0
