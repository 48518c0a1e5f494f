import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliess import (
    AlphabetMismatchError,
    MapFormatError,
    MatrixSeries,
    NonFiniteError,
    Series,
    SingularConstantTermError,
    VectorSeries,
    catenate,
    left_shift,
    letter_prefixed,
    shuffle,
    shuffle_inverse,
    shuffle_power,
)
from fliess.series import EPS, drift_word, word_key

from conftest import all_words, random_series


def brute_shuffle_words(u, v):
    """Reference interleaving enumeration, exponential and obviously correct."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, k in brute_shuffle_words(u[1:], v).items():
        w = (u[0],) + w
        out[w] = out.get(w, 0) + k
    for w, k in brute_shuffle_words(u, v[1:]).items():
        w = (v[0],) + w
        out[w] = out.get(w, 0) + k
    return out


class TestConstruction:
    def test_term_validation(self):
        with pytest.raises(ValueError):
            Series(2, 3, {(0, 2): 1.0})
        with pytest.raises(ValueError):
            Series(0, 3)
        with pytest.raises(ValueError):
            Series(2, -1)

    def test_long_words_dropped_and_eps_cleaned(self):
        s = Series(2, 2, {(0, 0, 0): 5.0, (1,): 1e-16, (0,): 2.0})
        assert s.support() == {(0,)}
        assert s.coeff((0,)) == 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            Series(2, 3, {(1,): bad})
        # also on a word the truncation would drop
        with pytest.raises(NonFiniteError):
            Series(2, 1, {(0, 0): bad})
        with pytest.raises(NonFiniteError):
            Series.from_json_dict(
                {"alphabet_size": 2, "max_degree": 3, "terms": [{"word": [1], "coeff": bad}]}
            )

    def test_duplicate_words_accumulate(self):
        s = Series(2, 3, [((0,), 1.0), ((0,), 2.5)])
        assert s.coeff((0,)) == 3.5

    def test_constructors(self):
        assert Series.zero(3, 4).is_zero()
        u = Series.unit(3, 4)
        assert u.constant_term() == 1.0 and len(u.support()) == 1
        m = Series.monomial((1, 2), 3, 4, coeff=-2.0)
        assert m.coeff((1, 2)) == -2.0
        t = Series.from_taylor([1.0, 2.0, 3.0], 3, 4)
        assert t.coeff((0, 0)) == 3.0 and t.coeff(()) == 1.0

    def test_ordering_degree_then_lex(self):
        s = Series(3, 3, {(2,): 1.0, (0, 1): 1.0, (1,): 1.0, (): 1.0})
        assert [w for w, _ in s.items()] == [(), (1,), (2,), (0, 1)]
        assert word_key((0, 1)) < word_key((1, 0))


class TestLinear:
    def test_add_sub_neg_scale(self, rng):
        a = random_series(rng, 3, 4)
        b = random_series(rng, 3, 4)
        words = set(a.support()) | set(b.support())
        s = a + b
        for w in words:
            assert s.coeff(w) == pytest.approx(a.coeff(w) + b.coeff(w), abs=1e-15)
        assert (a - a).is_zero()
        assert (-a + a).is_zero()
        assert (2.5 * a).coeff(next(iter(a.support()))) == pytest.approx(
            2.5 * a.coeff(next(iter(a.support())))
        )
        assert (0.0 * a).is_zero()

    def test_jet_degree_is_min(self, rng):
        a = random_series(rng, 3, 5)
        b = random_series(rng, 3, 3)
        assert (a + b).max_degree == 3
        assert shuffle(a, b).max_degree == 3

    def test_add_cancellation_stays_canonical(self):
        a = Series(2, 3, {(1,): 1.0, (0,): 2.0})
        b = Series(2, 3, {(1,): -1.0})
        assert (a + b).support() == {(0,)}

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            Series.unit(2, 3) + Series.unit(3, 3)

    def test_scalar_product_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            Series(2, 3, {(1,): 1e300}) * 1e10
        with pytest.raises(NonFiniteError):
            Series(2, 3, {(1,): 1.0}) * math.nan

    def test_sum_overflow_raises(self):
        a = Series(2, 3, {(1,): 1e308})
        with pytest.raises(NonFiniteError):
            a + a

    def test_infinity_cannot_cancel_to_zero(self):
        a = Series(2, 3, {(1,): 1e300})
        with pytest.raises(NonFiniteError, match="inf in a shuffle"):
            shuffle(a, a)  # 2e600 overflows in the kernel output
        b = Series._raw(2, 3, {(1, 1): math.inf})
        with pytest.raises(NonFiniteError):
            b + (-1.0) * b
        with pytest.raises(NonFiniteError):
            b + Series._raw(2, 3, {(1, 1): -math.inf})  # inf - inf = nan

    def test_truncate_and_relabel(self, rng):
        a = random_series(rng, 3, 5)
        t = a.truncate(2)
        assert t.max_degree == 2
        assert all(len(w) <= 2 for w in t.support())
        up = t.truncate(6)
        assert up.max_degree == 6 and up.truncate(2) == t

    def test_split_partition(self, rng):
        a = random_series(rng, 3, 4)
        nat, forced = a.natural_part(), a.forced_part()
        assert nat + forced == a
        assert all(not any(w) for w in nat.support())
        assert all(any(w) for w in forced.support())
        assert np.allclose(a.taylor_coeffs(5), nat.taylor_coeffs(5))


class TestShuffle:
    def test_unit_law(self, rng):
        a = random_series(rng, 3, 4)
        assert shuffle(Series.unit(3, 4), a) == a

    def test_single_letters(self):
        xa = Series.monomial((1,), 3, 4)
        xb = Series.monomial((2,), 3, 4)
        assert shuffle(xa, xb).terms_dict() == {(1, 2): 1.0, (2, 1): 1.0}
        assert shuffle(xa, xa).terms_dict() == {(1, 1): 2.0}

    def test_nan_coefficient_raises(self):
        # x1x2 collects -inf from x1 sh (-x2) and +inf from x2 sh x1
        a = Series(3, 2, {(1,): 1e300, (2,): 1e300})
        b = Series(3, 2, {(1,): 1e300, (2,): -1e300})
        with pytest.raises(NonFiniteError, match="nan in a shuffle"):
            shuffle(a, b)

    def test_drift_binomial_identity(self):
        # pairs with j + k > 8 fall past the truncation degree: zero series
        for j in range(9):
            for k in range(9):
                got = shuffle(
                    Series.monomial(drift_word(j), 2, 8),
                    Series.monomial(drift_word(k), 2, 8),
                )
                want = {drift_word(j + k): float(math.comb(j + k, j))} if j + k <= 8 else {}
                assert got.terms_dict() == want

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            a = random_series(rng, 3, 4, n_terms=6)
            b = random_series(rng, 3, 4, n_terms=6)
            want = {}
            for u, cu in a.terms_dict().items():
                for v, cv in b.terms_dict().items():
                    if len(u) + len(v) > 4:
                        continue
                    for w, mult in brute_shuffle_words(u, v).items():
                        want[w] = want.get(w, 0.0) + cu * cv * mult
            got = shuffle(a, b, 4)
            want = {w: c for w, c in want.items() if abs(c) > EPS}
            assert set(got.support()) == set(want)
            for w, c in want.items():
                assert got.coeff(w) == pytest.approx(c, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_commutative_associative(self, seed):
        r = np.random.default_rng(seed)
        a = random_series(r, 3, 4, n_terms=8)
        b = random_series(r, 3, 4, n_terms=8)
        c = random_series(r, 3, 4, n_terms=8)
        assert shuffle(a, b).max_abs_diff(shuffle(b, a)) == 0.0
        lhs = shuffle(shuffle(a, b, 4), c, 4)
        rhs = shuffle(a, shuffle(b, c, 4), 4)
        assert lhs.max_abs_diff(rhs) < 1e-9 * (1.0 + lhs.max_abs_coeff())

    def test_bilinear(self, rng):
        a = random_series(rng, 3, 4)
        b = random_series(rng, 3, 4)
        c = random_series(rng, 3, 4)
        lhs = shuffle(a, 2.0 * b + c, 4)
        rhs = 2.0 * shuffle(a, b, 4) + shuffle(a, c, 4)
        assert lhs.max_abs_diff(rhs) < 1e-12 * (1.0 + lhs.max_abs_coeff())

    def test_power(self):
        x0 = Series.monomial((0,), 2, 6)
        for k in range(5):
            got = shuffle_power(x0, k, 6)
            assert got.terms_dict() == {drift_word(k): float(math.factorial(k))}

    def test_vector_and_matrix_operands(self, rng):
        a = random_series(rng, 3, 3)
        v = VectorSeries([random_series(rng, 3, 3) for _ in range(2)])
        sv = shuffle(a, v)
        assert isinstance(sv, VectorSeries) and len(sv) == 2
        assert sv[0] == shuffle(a, v[0])
        assert shuffle(v, a)[1] == sv[1]
        m = MatrixSeries([[a, v[0]], [v[1], a]])
        prod = shuffle(m, MatrixSeries.identity(2, 3, 3))
        assert prod.allclose(m)
        mv = shuffle(m, v)
        want0 = shuffle(a, v[0], 3) + shuffle(v[0], v[1], 3)
        assert mv[0].max_abs_diff(want0) < 1e-12
        with pytest.raises(ValueError):
            shuffle(m, MatrixSeries([[a], [a], [a]]))
        with pytest.raises(TypeError):
            shuffle(a, 3.0)


class TestCatenation:
    def test_basic(self):
        a = Series.monomial((0,), 3, 4)
        b = Series.monomial((1,), 3, 4)
        assert catenate(a, b).terms_dict() == {(0, 1): 1.0}
        assert catenate(b, a).terms_dict() == {(1, 0): 1.0}

    def test_unit_and_assoc(self, rng):
        a = random_series(rng, 3, 4, n_terms=6)
        b = random_series(rng, 3, 4, n_terms=6)
        c = random_series(rng, 3, 4, n_terms=6)
        assert catenate(Series.unit(3, 4), a) == a
        lhs = catenate(catenate(a, b, 4), c, 4)
        rhs = catenate(a, catenate(b, c, 4), 4)
        assert lhs.max_abs_diff(rhs) < 1e-12 * (1.0 + lhs.max_abs_coeff())

    def test_overflow_raises(self):
        a = Series(2, 2, {(1,): 1e300})
        with pytest.raises(NonFiniteError, match="inf in a catenation"):
            catenate(a, a)  # 1e600 would be kept as inf*x1x1

    def test_nan_is_not_dropped_as_zero(self):
        a = Series(3, 2, {(1,): 1e300, (1, 2): 1e300})
        b = Series(3, 2, {(2,): 1e300, (): -1e300})
        # x1x2 collects inf - inf = nan; the filter would drop it and keep -inf*x1
        with pytest.raises(NonFiniteError, match="nan in a catenation"):
            catenate(a, b)

    def test_prefix_and_shift(self, rng):
        a = random_series(rng, 3, 4)
        lifted = letter_prefixed(1, a, 5)
        assert left_shift((1,), lifted) == a.truncate(4)
        # adjoint reading: coefficient of w in the shift = coefficient of (prefix)w
        s = random_series(rng, 3, 4)
        sh = left_shift((0, 1), s)
        for w in all_words(3, 2):
            assert sh.coeff(w) == s.coeff((0, 1) + w)
        with pytest.raises(ValueError):
            letter_prefixed(5, a, 5)


class TestShuffleInverse:
    def test_scalar_round_trip(self, rng):
        for _ in range(10):
            s = random_series(rng, 3, 5)
            s = s + Series(3, 5, {(): 3.0 - s.constant_term()})
            inv = shuffle_inverse(s)
            resid = shuffle(s, inv, 5) - Series.unit(3, 5)
            assert resid.max_abs_coeff() < 1e-9

    def test_matrix_round_trip(self, rng):
        entries = [[random_series(rng, 3, 4, scale=0.3) for _ in range(2)] for _ in range(2)]
        entries[0][0] = entries[0][0] + Series(3, 4, {(): 2.0})
        entries[1][1] = entries[1][1] + Series(3, 4, {(): 2.0})
        m = MatrixSeries(entries)
        inv = shuffle_inverse(m)
        prod = shuffle(m, inv, 4)
        assert prod.allclose(MatrixSeries.identity(2, 3, 4), rtol=1e-9, atol=1e-9)

    def test_singular_constant_term(self, rng):
        s = random_series(rng, 3, 4, proper=True)
        with pytest.raises(SingularConstantTermError):
            shuffle_inverse(s)

    def test_needs_square(self, rng):
        a = random_series(rng, 3, 3)
        with pytest.raises(ValueError):
            shuffle_inverse(MatrixSeries([[a, a]]))


class TestComparison:
    def test_allclose_and_diff(self, rng):
        a = random_series(rng, 3, 4)
        b = a + Series(3, 4, {(1,): 1e-12})
        assert a.allclose(b, rtol=0.0, atol=1e-10)
        assert not a.allclose(b, rtol=0.0, atol=1e-14)
        assert a.max_abs_diff(b) == pytest.approx(1e-12, rel=1e-6)

    def test_eq_hash(self):
        a = Series(2, 3, {(1,): 1.0})
        b = Series(2, 5, {(1,): 1.0})
        # degree is a truncation label, not content
        assert a == b and hash(a) == hash(b)


class TestSerialization:
    def test_scalar_round_trip(self, rng):
        a = random_series(rng, 3, 4)
        back = Series.from_json_dict(json.loads(json.dumps(a.to_json_dict())))
        assert back == a and back.max_degree == a.max_degree

    def test_vector_matrix_round_trip(self, rng):
        v = VectorSeries([random_series(rng, 3, 3) for _ in range(2)])
        assert VectorSeries.from_json_dict(v.to_json_dict()) == v
        m = MatrixSeries([[random_series(rng, 3, 3)]])
        assert MatrixSeries.from_json_dict(m.to_json_dict()).allclose(m)

    def test_malformed(self):
        with pytest.raises(MapFormatError):
            Series.from_json_dict({"alphabet_size": 2})
        with pytest.raises(MapFormatError):
            VectorSeries.from_json_dict({"components": [{"bogus": 1}]})


class TestVectorContainer:
    def test_component_checks(self, rng):
        a = random_series(rng, 3, 4)
        with pytest.raises(ValueError):
            VectorSeries([])
        with pytest.raises(AlphabetMismatchError):
            VectorSeries([a, random_series(rng, 2, 4)])
        with pytest.raises(ValueError):
            VectorSeries([a, random_series(rng, 3, 3)])

    def test_arithmetic(self, rng):
        v = VectorSeries([random_series(rng, 3, 4) for _ in range(2)])
        w = VectorSeries([random_series(rng, 3, 4) for _ in range(2)])
        assert (v + w)[0] == v[0] + w[0]
        assert (v - w)[1] == v[1] - w[1]
        assert (2.0 * v)[0] == 2.0 * v[0]
        assert v.truncate(2).max_degree == 2
        assert v.max_abs_diff(v) == 0.0
