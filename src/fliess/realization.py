"""State-space realizations, their generating series, and simulation.

A realization is an input-affine system

    dz/dt = g0(z) + sum_i g_i(z) u_i(t),    y_j = h_j(z),

with symbolic vector fields.  Its generating series assigns to the
word x_{i1} x_{i2} ... x_{ik} the iterated Lie derivative of h taken
innermost-first along the word:

    coeff = L_{g_{ik}} ( ... L_{g_{i2}} ( L_{g_{i1}} h ) ... ) (z0)

so the first letter of a word names the outermost time integral of
the matching iterated-integral functional.  The symbolic derivative
table depends only on the vector fields, not the initial state, and
is cached so re-evaluating the series along a sectioned trajectory
costs one expression-table evaluation per section.

The functional evaluator sums coefficient-weighted iterated integrals
on a shared uniform grid (trapezoid rule, 2000 points per unit time by
default); the ground-truth simulator is fixed-step classical
Runge-Kutta, which evaluates the input once per step grid (step
starts, midpoints and ends) and steps on plain floats.  Under
polynomial inputs, Taylor-mode integration of the fields gives the
output's Taylor coefficients at the initial state without the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fliess import symexpr
from fliess.errors import EvaluationError, MapFormatError, SimulationError
from fliess.series import EPS, Series, VectorSeries

DEFAULT_GRID_DENSITY = 2000  # points per unit time


@dataclass(frozen=True)
class Realization:
    """Input-affine system with symbolic fields.

    fields: list of m+1 vector fields (drift first), each a list of n
    expressions; outputs: list of expressions; z0: initial state.
    """

    fields: tuple
    outputs: tuple
    z0: tuple

    def __init__(self, fields, outputs, z0):
        fields = tuple(tuple(col) for col in fields)
        outputs = tuple(outputs)
        z0 = tuple(float(v) for v in z0)
        n = len(z0)
        if not fields:
            raise ValueError("need at least the drift field")
        for col in fields:
            if len(col) != n:
                raise ValueError("field dimension and state dimension differ")
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "z0", z0)

    @property
    def n_states(self):
        return len(self.z0)

    @property
    def n_inputs(self):
        return len(self.fields) - 1

    @property
    def n_outputs(self):
        return len(self.outputs)

    def with_initial_state(self, z0):
        return Realization(self.fields, self.outputs, z0)

    def to_json_dict(self):
        return {
            "n": self.n_states,
            "m": self.n_inputs,
            "z0": list(self.z0),
            "fields": [[symexpr.to_text(e) for e in col] for col in self.fields],
            "outputs": [symexpr.to_text(e) for e in self.outputs],
        }

    @classmethod
    def from_json_dict(cls, obj):
        try:
            n = obj["n"]
            fields = [[symexpr.parse_expr(t, n) for t in col] for col in obj["fields"]]
            outputs = [symexpr.parse_expr(t, n) for t in obj["outputs"]]
            return cls(fields, outputs, obj["z0"])
        except (KeyError, TypeError) as exc:
            raise MapFormatError(f"malformed realization document: {exc}") from exc


def lie_derivative(g, h):
    """L_g h = sum_s (dh/dz_s) g_s for a vector field g."""
    parts = []
    for s, gs in enumerate(g):
        if gs.is_const(0.0):
            continue
        dh = symexpr.differentiate(h, s)
        if dh.is_const(0.0):
            continue
        parts.append(symexpr.mul(dh, gs))
    return symexpr.add(*parts) if parts else symexpr.ZERO


# symbolic word -> expression tables, keyed by the (interned, so
# identity-hashed) field and output expressions
_TABLE_CACHE = {}


def _coefficient_table(fields, outputs, degree):
    """Map each word (up to degree) to one expression per output.

    Words whose expression is identically zero are pruned together
    with their whole extension subtree (appending letters to a zero
    coefficient keeps it zero).
    """
    key = (fields, outputs)
    cached = _TABLE_CACHE.get(key)
    if cached is not None and cached[0] >= degree:
        return cached[1]
    table = {}
    for out_idx, h in enumerate(outputs):
        frontier = {(): h}
        if not h.is_const(0.0):
            table[((), out_idx)] = h
        for _ in range(degree):
            nxt = {}
            for word, phi in frontier.items():
                for letter, g in enumerate(fields):
                    child = lie_derivative(g, phi)
                    if child.is_const(0.0):
                        continue
                    nxt[word + (letter,)] = child
            for word, phi in nxt.items():
                table[(word, out_idx)] = phi
            frontier = nxt
            if not frontier:
                break
    _TABLE_CACHE[key] = (degree, table)
    return table


def generating_series(realization, degree):
    """Generating series of the realization about its initial state.

    Returns a VectorSeries (one component per output) over the
    alphabet with one drift letter plus one letter per input, truncated
    to the requested degree.
    """
    if degree < 0:
        raise ValueError("max_degree must be nonnegative")
    table = _coefficient_table(realization.fields, realization.outputs, degree)
    memo = {}
    per_output = [dict() for _ in realization.outputs]
    for (word, out_idx), phi in table.items():
        if len(word) > degree:
            continue
        value = symexpr.evaluate(phi, realization.z0, memo)
        if abs(value) > EPS:
            per_output[out_idx][word] = value
    alphabet = realization.n_inputs + 1
    # trusted build: the words come from the table, evaluate() rejects
    # non-finite values and the EPS filter above drops the zeros
    return VectorSeries(
        [Series._raw(alphabet, degree, terms) for terms in per_output]
    )


def growth_estimate(series):
    """Crude (K, M) with |coeff(word)| <= K * M^|word| * |word|! (diagnostic only)."""
    if isinstance(series, Series):
        series = VectorSeries([series])
    K = max(abs(c.constant_term()) for c in series)
    if K == 0.0:
        K = max(series.max_abs_coeff(), 1.0)
    M = 0.0
    for comp in series:
        for w, c in comp.terms_dict().items():
            k = len(w)
            if k == 0:
                continue
            M = max(M, (abs(c) / (K * math.factorial(k))) ** (1.0 / k))
    return K, max(M, 1.0)


# ---------------------------------------------------------------------------
# control signals


@dataclass
class ControlSignal:
    """Vector input signal on [0, horizon].

    Either polynomial-in-time per input (monomial coefficients) or
    sampled values on a uniform grid with linear interpolation.
    """

    kind: str
    horizon: float
    poly: list = field(default_factory=list)  # monomial coeffs per input
    times: np.ndarray = None
    values: np.ndarray = None  # shape (m, len(times))

    @classmethod
    def from_monomial(cls, coeffs, horizon):
        return cls(kind="poly", horizon=float(horizon), poly=[np.asarray(c, dtype=float) for c in coeffs])

    @classmethod
    def from_taylor(cls, coeffs, horizon):
        """coeffs[i][k] are series-convention values: u_i(t) = sum_k c_k t^k / k!."""
        mono = [
            np.array([c / math.factorial(k) for k, c in enumerate(ci)])
            for ci in coeffs
        ]
        return cls.from_monomial(mono, horizon)

    @classmethod
    def constant(cls, values, horizon):
        return cls.from_monomial([[v] for v in values], horizon)

    @classmethod
    def from_samples(cls, times, values):
        times = np.asarray(times, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != times.shape[0]:
            raise ValueError("sample count and time count differ")
        return cls(kind="samples", horizon=float(times[-1]), times=times, values=values)

    @property
    def n_inputs(self):
        return len(self.poly) if self.kind == "poly" else self.values.shape[0]

    def eval(self, t):
        """Evaluate at scalar time or array of times; returns (m,) or (m, len(t))."""
        t = np.asarray(t, dtype=float)
        if self.kind == "poly":
            rows = [np.polynomial.polynomial.polyval(t, c) for c in self.poly]
        else:
            rows = [np.interp(t, self.times, vi) for vi in self.values]
        return np.array(rows)


# ---------------------------------------------------------------------------
# functional evaluation


def _cumtrapz(f, dt):
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((f[1:] + f[:-1]) * (0.5 * dt), out=out[1:])
    return out


def uniform_grid(horizon, density=DEFAULT_GRID_DENSITY):
    n = max(2, int(round(horizon * density)) + 1)
    return np.linspace(0.0, horizon, n)


def fliess_eval(series, u, grid):
    """Evaluate the Chen-Fliess functional of the series along input u.

    u may be a ControlSignal or a pre-evaluated (m, len(grid)) array.
    The drift channel u_0 = 1 is implicit.  Iterated integrals are
    shared across words through their suffixes.
    """
    scalar = isinstance(series, Series)
    if scalar:
        series = VectorSeries([series])
    grid = np.asarray(grid, dtype=float)
    dt = grid[1] - grid[0]
    m = series.alphabet_size - 1
    if isinstance(u, ControlSignal):
        u_vals = u.eval(grid) if m else np.zeros((0, grid.size))
    else:
        u_vals = np.atleast_2d(np.asarray(u, dtype=float))
    if m and u_vals.shape != (m, grid.size):
        raise ValueError(f"input samples must have shape {(m, grid.size)}")
    channels = [np.ones_like(grid)] + [u_vals[i] for i in range(m)]

    integrals = {(): np.ones_like(grid)}

    def integral(word):
        hit = integrals.get(word)
        if hit is not None:
            return hit
        inner = integral(word[1:])
        out = _cumtrapz(channels[word[0]] * inner, dt)
        integrals[word] = out
        return out

    outputs = np.zeros((grid.size, len(series)))
    for j, comp in enumerate(series):
        acc = np.zeros_like(grid)
        for w, c in comp.terms_dict().items():
            acc = acc + c * integral(w)
        outputs[:, j] = acc
    return outputs[:, 0] if scalar else outputs


# ---------------------------------------------------------------------------
# simulation


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray   # (len(times), n)
    outputs: np.ndarray  # (len(times), ell)

    def final_state(self):
        return self.states[-1]

    @classmethod
    def concat(cls, trajectories):
        """One trajectory from consecutive pieces, each timed from the end of the last."""
        times, states, outputs = [], [], []
        offset = 0.0
        for tr in trajectories:
            times.append(tr.times + offset)
            states.append(tr.states)
            outputs.append(tr.outputs)
            offset += float(tr.times[-1])
        return cls(
            times=np.concatenate(times),
            states=np.vstack(states),
            outputs=np.vstack(outputs),
        )

    def to_csv(self, path):
        """Header t,z1,...,zn,y1,...,yl; 15 significant digits."""
        n = self.states.shape[1]
        ell = self.outputs.shape[1]
        header = ",".join(["t"] + [f"z{i+1}" for i in range(n)] + [f"y{j+1}" for j in range(ell)])
        data = np.column_stack([self.times, self.states, self.outputs])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in data:
                fh.write(",".join(f"{v:.15g}" for v in row) + "\n")


def rk4_simulate(realization, u, horizon, steps):
    """Classical fixed-step fourth-order Runge-Kutta integration.

    The input is evaluated once per call, vectorised on each stage-time
    grid (t_k, t_k + h/2, t_k + h); the steps then run on Python floats
    through the compiled fields.  Raises SimulationError with the first
    offending time if the state leaves the finite range.
    """
    if steps < 1:
        raise ValueError("RK4 needs at least one step")
    n = realization.n_states
    m = realization.n_inputs
    field_fn = _compiled(tuple(e for col in realization.fields for e in col), n)
    out_fn = _compiled(realization.outputs, n)

    h = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    starts = times[:-1]
    if m:
        u_start, u_mid, u_end = (
            u.eval(grid).T.tolist() for grid in (starts, starts + 0.5 * h, starts + h)
        )
    else:
        u_start = u_mid = u_end = [()] * steps

    def rhs(z, uv):
        vals = field_fn(z)
        out = vals[:n]
        for i in range(m):
            ui = uv[i]
            out = [a + ui * b for a, b in zip(out, vals[(i + 1) * n : (i + 2) * n])]
        return out

    # operation order z + (0.5 * h) * k1 and z + (h / 6) * (k1 + 2 k2 +
    # 2 k3 + k4), element by element: the states are bit-identical to
    # the vector form of the same steps
    half = 0.5 * h
    sixth = h / 6.0
    z = list(realization.z0)
    states = [z]
    for k in range(steps):
        try:
            k1 = rhs(z, u_start[k])
            k2 = rhs([a + half * b for a, b in zip(z, k1)], u_mid[k])
            k3 = rhs([a + half * b for a, b in zip(z, k2)], u_mid[k])
            k4 = rhs([a + h * b for a, b in zip(z, k3)], u_end[k])
        except (ZeroDivisionError, OverflowError):
            # a float overflow or zero division is a non-finite state
            raise SimulationError(times[k + 1]) from None
        z = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, z)):
            raise SimulationError(times[k + 1])
        states.append(z)
    states = np.array(states)
    outputs = np.array([out_fn(s) for s in states])
    return Trajectory(times=times, states=states, outputs=outputs)


def taylor_outputs(realization, u, degree):
    """Output Taylor coefficients through t^degree under polynomial inputs.

    u[i][k] are series-convention input coefficients, u_i(t) = sum_k
    u[i][k] t^k / k!.  Taylor-mode integration of the realization: with
    the jets of z known through t^k, the jets of the fields give
    coefficient k of dz/dt = g0(z) + sum_i g_i(z) u_i(t), so
    z_{k+1} = [dz/dt]_k / (k+1).  The truncated generating series of
    the same degree gives these coefficients exactly, so both agree up
    to rounding.  Returns an (ell, degree+1) array in series convention
    (row j holds y_j^(k)(0)).  Raises EvaluationError when a jet meets a
    zero denominator, a zero base with a negative exponent, or a
    non-finite value.
    """
    n, m = realization.n_states, realization.n_inputs
    if len(u) != m:
        raise ValueError(f"need {m} input expansions, got {len(u)}")
    flat = [e for col in realization.fields for e in col]
    tape = symexpr.JetTape(flat + list(realization.outputs), n)
    jets = tape.jets
    # per state: the drift's slot and the (input, slot) pairs of its
    # nonzero input-field components
    rows = [
        (
            tape.slots[s],
            [(i, tape.slots[(i + 1) * n + s]) for i in range(m) if not flat[(i + 1) * n + s].is_const(0.0)],
        )
        for s in range(n)
    ]
    inputs = [[c / math.factorial(k) for k, c in enumerate(ui)] for ui in u]
    for s, v in enumerate(realization.z0):
        jets[s].append(v)
    for k in range(degree + 1):
        tape.step(k)
        if k == degree:
            break
        for s, (drift, forced) in enumerate(rows):
            acc = jets[drift][k]
            for i, slot in forced:
                ui, g = inputs[i], jets[slot]
                acc += sum(ui[j] * g[k - j] for j in range(min(k + 1, len(ui))))
            jets[s].append(acc / (k + 1))
    out = [
        [c * math.factorial(k) for k, c in enumerate(jets[slot])]
        for slot in tape.slots[len(flat):]
    ]
    if not all(math.isfinite(c) for row in out for c in row):
        raise EvaluationError("non-finite output Taylor coefficient")
    return np.array(out)


# compiled functions keyed by the expression tuple itself: interned
# nodes hash by identity, and the key keeps them alive
_COMPILED = {}


def _compiled(exprs, n):
    """One function z -> [e(z) for e in exprs] over n state variables."""
    fn = _COMPILED.get(exprs)
    if fn is None:
        fn = _COMPILED[exprs] = symexpr.compile_expr(list(exprs), n)
    return fn
