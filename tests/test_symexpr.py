import math

import numpy as np
import pytest

from fliess import symexpr as se
from fliess.errors import EvaluationError
from fliess.realization import Realization, _taylor_kernel


def sample_points(rng, n_vars, count=8, scale=0.8):
    return rng.uniform(-scale, scale, size=(count, n_vars))


def gnarly(z1, z2, z3):
    # touches every node kind
    return (
        se.sin(1.7 * z1) / se.cos(0.7 * z1)
        + se.power(z2, 3) * se.tan(0.3 * z3)
        - z3 / (2.0 + z2 * z2)
        + se.sec(0.5 * z2)
    )


class TestConstruction:
    def test_interning_gives_identical_nodes(self):
        assert se.var(2) is se.var(2)
        a = se.var(0) + se.var(1)
        b = se.var(0) + se.var(1)
        assert a is b

    def test_constant_folding(self):
        e = se.const(1.5) + se.const(2.5)
        assert e.is_const(4.0)
        assert (se.const(3.0) * se.const(2.0)).is_const(6.0)

    def test_zero_and_one_absorption(self):
        z = se.var(0)
        assert (z + 0.0) is z
        assert (z * 1.0) is z
        assert (z * 0.0).is_const(0.0)
        assert se.power(z, 1) is z
        assert se.power(z, 0).is_const(1.0)

    def test_operator_overloads_evaluate(self):
        z1, z2 = se.var(0), se.var(1)
        e = 2.0 * z1 - z2 / 4.0 + z1**2 - (-z2)
        got = se.evaluate(e, [3.0, 8.0])
        assert got == pytest.approx(2.0 * 3 - 8 / 4.0 + 9 + 8, abs=1e-14)

    def test_var_index_validation(self):
        with pytest.raises(ValueError):
            se.var(-1)


class TestDifferentiate:
    def test_matches_central_difference(self, rng):
        z = [se.var(i) for i in range(3)]
        e = gnarly(*z)
        h = 1e-6
        for pt in sample_points(rng, 3):
            for i in range(3):
                d = se.evaluate(se.differentiate(e, i), pt)
                hi = pt.copy()
                lo = pt.copy()
                hi[i] += h
                lo[i] -= h
                fd = (se.evaluate(e, hi) - se.evaluate(e, lo)) / (2 * h)
                assert d == pytest.approx(fd, rel=2e-8, abs=2e-8)

    def test_constant_and_unrelated_var(self):
        assert se.differentiate(se.const(4.2), 0).is_const(0.0)
        assert se.differentiate(se.var(1), 0).is_const(0.0)
        assert se.differentiate(se.var(1), 1).is_const(1.0)

    def test_negative_power_rule(self, rng):
        e = se.power(se.var(0) + 2.0, -2)
        for pt in sample_points(rng, 1):
            d = se.evaluate(se.differentiate(e, 0), pt)
            want = -2.0 * (pt[0] + 2.0) ** -3
            assert d == pytest.approx(want, rel=1e-12)


class TestEvaluate:
    def test_zero_denominator(self):
        e = se.const(1.0) / se.var(0)
        with pytest.raises(EvaluationError):
            se.evaluate(e, [0.0])

    def test_zero_base_negative_exponent(self):
        e = se.power(se.var(0), -1)
        with pytest.raises(EvaluationError):
            se.evaluate(e, [0.0])

    def test_overflow_is_reported(self):
        # product path makes an inf, power path raises OverflowError inside;
        # both must surface as the library's error
        with pytest.raises(EvaluationError):
            se.evaluate(se.var(0) * se.var(1), [1e308, 1e308])
        with pytest.raises(EvaluationError):
            se.evaluate(se.power(se.var(0), 2), [1e308])

    def test_sec_is_reciprocal_cosine(self, rng):
        e = se.sec(se.var(0))
        for pt in sample_points(rng, 1):
            assert se.evaluate(e, pt) == pytest.approx(1.0 / math.cos(pt[0]), rel=1e-14)

    def test_memo_entries_are_reused(self):
        z = se.var(0)
        e1 = se.sin(z) * se.sin(z)
        assert se.evaluate(e1, [0.3]) == pytest.approx(math.sin(0.3) ** 2, rel=1e-14)
        # a poisoned entry for the shared subterm must be honored
        memo = {se.sin(z)._id: 0.0}
        assert se.evaluate(e1, [0.3], memo) == 0.0


class TestTopological:
    def test_arguments_precede_their_nodes_once_each(self):
        z = [se.var(i) for i in range(3)]
        exprs = [gnarly(*z), z[0] * z[1] - 1.0, gnarly(*z)]
        order = se.topological(exprs)
        assert len(order) == len(set(order))
        seen = set()
        for node in order:
            assert all(a in seen for a in node.args)
            seen.add(node)
        assert all(e in seen for e in exprs)

    def test_deep_expression_needs_no_recursion(self):
        e = se.var(0)
        for k in range(3000):
            e = se.sin(e) + float(k)
        assert len(se.topological([e])) > 6000


class TestSlotTape:
    def test_bitwise_equal_to_evaluate(self, rng, monkeypatch):
        # two statements per chunk, so values cross chunk boundaries
        monkeypatch.setattr(se.SlotTape, "CHUNK", 2)
        z = [se.var(i) for i in range(3)]
        exprs = [gnarly(*z), z[0] * z[1] - 1.0, se.const(2.5), z[2], gnarly(*z) * z[0]]
        tape = se.SlotTape(exprs)
        assert len(tape._chunks) > 1
        for pt in sample_points(rng, 3):
            assert list(tape(pt)) == [se.evaluate(e, pt) for e in exprs]

    def test_reads_only_the_variables_it_needs(self):
        tape = se.SlotTape([se.var(1) * 2.0])
        assert tape.n_vars == 2
        assert tape((5.0, 3.0, 99.0)) == (6.0,)
        with pytest.raises(ValueError):
            tape((5.0,))

    @pytest.mark.parametrize(
        "expr, point",
        [
            (se.const(1.0) / se.var(0), [0.0]),  # zero denominator
            (se.power(se.var(0), -1), [0.0]),  # 0 ** -1
            (se.var(0) * se.var(1), [1e308, 1e308]),  # inf from a product
            (se.power(se.var(0), 2), [1e308]),  # OverflowError from a power
            (se.sin(se.var(0) * se.var(0)), [1e308]),  # non-finite argument of sin
        ],
    )
    def test_raises_where_evaluate_raises(self, expr, point):
        with pytest.raises(EvaluationError):
            se.evaluate(expr, point)
        with pytest.raises(EvaluationError):
            se.SlotTape([expr])(point)


def jets_along(exprs, state, degree):
    """Coefficients 0..degree of exprs along fixed polynomial variable jets.

    The variables are the parameters of a realization with no state, so
    the compiled Taylor-mode kernel takes each variable's jet whole.
    """
    r = Realization(fields=[[]], outputs=exprs, z0=(), params=[coeffs[0] for coeffs in state])
    known = [coeffs + [0.0] * (degree + 1 - len(coeffs)) for coeffs in state]
    return [list(jet) for jet in _taylor_kernel(r, (), degree)((), known)]


class TestJets:
    """Each rule against a closed-form Taylor series along z1(t) = a + t."""

    def test_closed_forms(self):
        z = se.var(0)
        sin_t, cos_t, tan_t, geo, inv_sq, cube, shifted_cube = jets_along(
            [se.sin(z), se.cos(z), se.tan(z), 1.0 / (1.0 - z), (1.0 + z) ** -2, z**3, (2.0 + z) ** 3],
            [[0.0, 1.0]],
            6,
        )
        fact = [math.factorial(k) for k in range(7)]
        assert np.allclose(sin_t, [0, 1, 0, -1 / fact[3], 0, 1 / fact[5], 0], rtol=0, atol=1e-15)
        assert np.allclose(cos_t, [1, 0, -1 / 2, 0, 1 / fact[4], 0, -1 / fact[6]], rtol=0, atol=1e-15)
        assert np.allclose(tan_t, [0, 1, 0, 1 / 3, 0, 2 / 15, 0], rtol=0, atol=1e-15)
        assert geo == [1.0] * 7
        assert inv_sq == [(-1.0) ** k * (k + 1) for k in range(7)]
        assert cube == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]  # zero base
        assert shifted_cube == [8.0, 12.0, 6.0, 1.0, 0.0, 0.0, 0.0]

    def test_products_sums_and_shared_trig(self, rng):
        # along a random cubic state, against products of truncated jets
        a = list(rng.normal(size=4))
        z = se.var(0)
        got = jets_along([3.0 * z * se.sin(z) * se.cos(z) + z, se.sin(z)], [a], 5)
        sin_j, cos_j = jets_along([se.sin(z), se.cos(z)], [a], 5)

        def cauchy(x, y):
            return [sum(x[j] * y[k - j] for j in range(k + 1)) for k in range(6)]

        z_j = a + [0.0, 0.0]
        want = [3.0 * p + q for p, q in zip(cauchy(cauchy(z_j, sin_j), cos_j), z_j)]
        assert np.allclose(got[0], want, rtol=1e-13, atol=1e-14)
        assert got[1] == sin_j

    def test_sums_start_from_int_zero(self):
        # as sum() does: 0 + -0.0 is 0.0, so a sum of negative zeros is +0.0
        (total,) = jets_along([se.var(0) + se.var(1)], [[-0.0], [-0.0]], 1)
        assert [math.copysign(1.0, c) for c in total] == [1.0, 1.0]

    def test_zero_denominator_raises(self):
        with pytest.raises(EvaluationError, match="zero denominator"):
            jets_along([1.0 / se.var(0)], [[0.0, 1.0]], 3)

    def test_zero_base_negative_exponent_raises(self):
        with pytest.raises(EvaluationError, match="negative exponent"):
            jets_along([se.power(se.var(0), -2)], [[0.0, 1.0]], 3)

    def test_overflow_raises(self):
        with pytest.raises(EvaluationError, match="non-finite"):
            jets_along([se.var(0) * se.var(0)], [[1e200, 1e200]], 3)
        with pytest.raises(EvaluationError, match="non-finite"):
            jets_along([se.power(se.var(0), 3)], [[1e200]], 1)
        # OverflowError from the power itself
        with pytest.raises(EvaluationError, match="non-finite value in a Taylor jet at order 0"):
            jets_along([se.power(se.var(0), -2)], [[1e-200]], 1)


class TestSimplify:
    def test_value_preserving(self, rng):
        z = [se.var(i) for i in range(3)]
        e = gnarly(*z)
        s = se.simplify(e)
        for pt in sample_points(rng, 3):
            assert se.evaluate(s, pt) == pytest.approx(se.evaluate(e, pt), rel=1e-13)

    def test_idempotent(self):
        z = [se.var(i) for i in range(3)]
        e = gnarly(*z)
        s = se.simplify(e)
        assert se.simplify(s) is s


class TestText:
    def test_renders_exact_strings(self):
        # the text reaches repr and the EvaluationError messages; argument
        # order is the structural one, and a quotient factor after another
        # factor keeps its parentheses
        z = [se.var(i) for i in range(3)]
        cases = [
            (se.const(-2.5), "-2.5"),
            (-2.0 * z[0] + 0.5, "z1*(-2)+0.5"),
            (se.mul(z[2], se.div(z[0], z[1])), "z3*(z1/z2)"),
            (se.power(z[0] + z[1], -3), "(z1+z2)^-3"),
            (z[0] - (z[1] - z[2]), "(z3*(-1)+z2)*(-1)+z1"),
            (se.tan(z[2]) / (1.0 + se.power(z[0], 2)), "tan(z3)/(z1^2+1)"),
            (se.sec(0.5 * z[1]), "1/cos(0.5*z2)"),
        ]
        for e, text in cases:
            assert se.to_text(e) == text
            assert repr(e) == f"Expr<{text}>"
