"""State-space realizations, their generating series, and simulation.

A realization is an input-affine system

    dz/dt = g0(z) + sum_i g_i(z) u_i(t),    y_j = h_j(z),

with symbolic vector fields.  Its generating series assigns to the
word x_{i1} x_{i2} ... x_{ik} the iterated Lie derivative of h taken
innermost-first along the word:

    coeff = L_{g_{ik}} ( ... L_{g_{i2}} ( L_{g_{i1}} h ) ... ) (z0)

so the first letter of a word names the outermost time integral of
the matching iterated-integral functional.  The expressions may read
constant parameters as variables after the states; their values
travel with the realization and are neither integrated nor stepped.
The symbolic derivative table depends only on the vector fields, not
on the initial state or the parameter values.  Each (fields, outputs,
degree) gets one TablePlan, cached: it numbers the table's words and
compiles the table into a straight-line tape (symexpr.SlotTape), so
re-evaluating the series along a sectioned trajectory, or for another
parameter value, costs one run of the tape.  The series keeps its plan
and the plan-aligned values, and the left inversion reads them
through index maps it derives once per plan.

The functional evaluator and the simulator read the input through
its eval(t), which returns the (m, len(t)) input values; in the
pipeline that is the left inversion's TaylorOutput, so RK4 integrates
the very expansion the inversion produced.  The functional evaluator
sums coefficient-weighted iterated integrals on a shared uniform grid
(trapezoid rule).  Both integrators read one right-hand side, the
symbolic g0 + sum_i u_i g_i per state with the inputs as the variables
after the parameters, which each builds only when it compiles a new
field set.  The ground-truth simulator is fixed-step classical
Runge-Kutta: it evaluates the input once on the step starts,
midpoints and ends, then runs every step on plain floats in one
function compiled per right-hand side, with the nodes as named
locals.  Under polynomial inputs, Taylor-mode integration of the same
right-hand side gives the output's Taylor coefficients at the initial
state without the series, in one function compiled per right-hand side
and degree through the same emitter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from fliess import symexpr
from fliess.errors import EvaluationError, SimulationError
from fliess.series import EPS, Series, VectorSeries


@dataclass(frozen=True)
class Realization:
    """Input-affine system with symbolic fields.

    fields: list of m+1 vector fields (drift first), each a list of n
    expressions; outputs: list of expressions; z0: initial state;
    params: values of the variables z_{n+1}, z_{n+2}, ... that the
    expressions read as constant parameters.
    """

    fields: tuple
    outputs: tuple
    z0: tuple
    params: tuple

    def __init__(self, fields, outputs, z0, params=()):
        fields = tuple(tuple(col) for col in fields)
        outputs = tuple(outputs)
        z0 = tuple(float(v) for v in z0)
        params = tuple(float(v) for v in params)
        n = len(z0)
        if not fields:
            raise ValueError("need at least the drift field")
        for col in fields:
            if len(col) != n:
                raise ValueError("field dimension and state dimension differ")
        top = _top_variable(fields, outputs)
        if top >= n + len(params):
            raise ValueError(
                f"an expression reads z{top + 1}, "
                f"but there are {n} states and {len(params)} parameters"
            )
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "params", params)

    @property
    def n_states(self):
        return len(self.z0)

    @property
    def n_inputs(self):
        return len(self.fields) - 1

    @property
    def n_outputs(self):
        return len(self.outputs)


@functools.cache
def _top_variable(fields, outputs):
    """The largest variable index the expressions read, -1 for none; once per field set."""
    nodes = symexpr.topological([e for col in fields for e in col] + list(outputs))
    return max((e.value for e in nodes if e.kind == symexpr.VAR), default=-1)


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


def _coefficient_table(fields, outputs, degree):
    """Map each word (up to degree) to one expression per output.

    Words whose expression is identically zero are pruned together
    with their whole extension subtree (appending letters to a zero
    coefficient keeps it zero).  The table is built output by output
    and level by level, appending letters in order to a lexicographic
    frontier, so its keys run output-major and in word_key order.
    """
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
    return table


class TablePlan:
    """The point-independent layout of one truncated Lie-derivative table.

    ``words[i]`` lists output i's symbolically nonzero words in
    word_key order.  Positions number all of them output-major, output
    i's block starting at ``offsets[i]``; values aligned with these
    positions are the plan-aligned values.  ``tape`` evaluates every
    entry at a point in that order (None for a plan read off a series,
    whose values come with it).  ``derive`` caches maps that other
    layers compute from the numbering alone, such as the inversion's
    shift maps.
    """

    def __init__(self, words, alphabet_size, degree, tape=None):
        if not words:
            raise ValueError("a table plan needs at least one output")
        self.words = [tuple(ws) for ws in words]
        self.alphabet_size = alphabet_size
        self.degree = degree
        self.tape = tape
        self.offsets = [0]
        for ws in self.words[:-1]:
            self.offsets.append(self.offsets[-1] + len(ws))
        self.n_values = self.offsets[-1] + len(self.words[-1])
        self._derived = {}

    @property
    def n_outputs(self):
        return len(self.words)

    @classmethod
    def of_table(cls, fields, outputs, degree):
        """The plan of the realization table with its compiled tape."""
        words = [[] for _ in outputs]
        exprs = []
        for (word, out_idx), phi in _coefficient_table(fields, outputs, degree).items():
            words[out_idx].append(word)
            exprs.append(phi)
        return cls(words, len(fields), degree, symexpr.SlotTape(exprs))

    @classmethod
    def of_series(cls, c):
        """A plan read off a vector series, and the series' plan-aligned values."""
        items = [comp.items() for comp in c]
        words = [[w for w, _ in terms] for terms in items]
        values = tuple(v for terms in items for _, v in terms)
        return cls(words, c.alphabet_size, c.max_degree), values

    def derive(self, key, build):
        """build(plan), computed once per key."""
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = build(self)
        return hit


class TableSeries(VectorSeries):
    """A vector series that keeps the plan and the plan-aligned values it was read from.

    The components hold the values with |value| > EPS, as every series
    does; they are built on first use, since the left inversion reads
    the values through the plan instead.  Arithmetic on a TableSeries
    returns plain vector series.
    """

    __slots__ = ("plan", "values", "_components")

    def __init__(self, plan, values, components=None):
        self.plan = plan
        self.values = values
        self._components = components

    @property
    def components(self):
        if self._components is None:
            plan, values = self.plan, self.values
            self._components = [
                Series._raw(
                    plan.alphabet_size,
                    plan.degree,
                    {w: v for w, v in zip(words, values[lo : lo + len(words)]) if abs(v) > EPS},
                )
                for words, lo in zip(plan.words, plan.offsets)
            ]
        return self._components

    def __len__(self):
        return self.plan.n_outputs


def planned(c):
    """The series as a TableSeries: itself, or with a plan read off its terms."""
    if isinstance(c, Series):
        c = VectorSeries([c])
    if isinstance(c, TableSeries):
        return c
    plan, values = TablePlan.of_series(c)
    return TableSeries(plan, values, c.components)


# one TablePlan per (fields, outputs, degree), keyed by the interned (so
# identity-hashed) field and output expressions
_TABLE_CACHE = {}


def table_plan(fields, outputs, degree):
    """The cached TablePlan of a realization's table."""
    key = (fields, outputs, degree)
    plan = _TABLE_CACHE.get(key)
    if plan is None:
        plan = _TABLE_CACHE[key] = TablePlan.of_table(fields, outputs, degree)
    return plan


def generating_series(realization, degree):
    """Generating series of the realization about its initial state.

    Returns a VectorSeries (one component per output) over the
    alphabet with one drift letter plus one letter per input, truncated
    to the requested degree: a TableSeries, which keeps the table's
    plan and its values for the left inversion.  Raises
    EvaluationError where a table entry has no finite value.
    """
    if degree < 0:
        raise ValueError("max_degree must be nonnegative")
    plan = table_plan(realization.fields, realization.outputs, degree)
    # trusted build: the words come from the table, the tape rejects
    # non-finite values and TableSeries drops the zeros
    return TableSeries(plan, plan.tape(realization.z0 + realization.params))


# ---------------------------------------------------------------------------
# functional evaluation


def _cumtrapz(f, dt):
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((f[1:] + f[:-1]) * (0.5 * dt), out=out[1:])
    return out


def fliess_eval(series, u, grid):
    """Evaluate the Chen-Fliess functional of the series along input u.

    u is either an input with an eval(t) method returning the (m,
    len(t)) input values, such as the TaylorOutput that left_invert
    returns, or those values on the grid already.  The drift channel
    u_0 = 1 is implicit.  Iterated integrals are shared across words
    through their suffixes.
    """
    scalar = isinstance(series, Series)
    if scalar:
        series = VectorSeries([series])
    grid = np.asarray(grid, dtype=float)
    dt = grid[1] - grid[0]
    m = series.alphabet_size - 1
    if hasattr(u, "eval"):
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
        row = ",".join(["{:.15g}"] * data.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(row.format(*values.tolist()) for values in data)


def _right_hand_side(realization):
    """g0 + sum_i u_i g_i per state, the inputs read as the variables after the parameters.

    The constructors drop the zero input components and the unit
    factors, so both integrators run on the terms that are there.
    """
    first_input = realization.n_states + len(realization.params)
    drift, *inputs = realization.fields
    return tuple(
        symexpr.add(
            g0, *[symexpr.mul(symexpr.var(first_input + i), g[s]) for i, g in enumerate(inputs)]
        )
        for s, g0 in enumerate(drift)
    )


# what the integrators compile from a right-hand side, keyed by (kind,
# fields, outputs, parameter count), which fix the right-hand side (the
# jets' kind carries their degree):
# interned nodes hash by identity, and the key keeps them alive
_COMPILED = {}


def _compiled(kind, realization, build):
    """build(rhs) for the realization's right-hand side, once per kind and key."""
    key = (kind, realization.fields, realization.outputs, len(realization.params))
    hit = _COMPILED.get(key)
    if hit is None:
        hit = _COMPILED[key] = build(_right_hand_side(realization))
    return hit


def _rk4_kernel(realization, rhs):
    """One compiled function that runs every RK4 step of dz/dt = rhs, then the outputs.

    kernel(z0, params, inputs, times, h) returns the states and the
    outputs at the times as lists of tuples; inputs[k], inputs[k +
    steps] and inputs[k + 2 steps] are the inputs at the start, the
    midpoint and the end of step k.  Each stage evaluates the nodes of
    rhs as locals, emitted and checked as a SlotTape of rhs emits and
    checks its slots.  A stage that fails or a state that leaves the
    finite range raises SimulationError at the end time of its step;
    an output with no finite value raises EvaluationError.
    """
    n, m = realization.n_states, realization.n_inputs
    params = [f"p{j}" for j in range(len(realization.params))]
    state = [f"z{i}" for i in range(n)]
    consts, step, ks = {}, [], []
    fail = "raise _SimulationError(times[k + 1])"
    no_output = "raise _EvaluationError('no finite output')"
    stages = (("", "", None), ("_2", "_m", "half"), ("_3", "_m", "half"), ("_4", "_e", "h"))
    for s, grid, factor in stages:
        names = [f"z{i}{s}" for i in range(n)] + params + [f"u{j}{grid}" for j in range(m)]
        lines, k, held = symexpr.emit(rhs, names, s, consts)
        if factor:
            step += [f"z{i}{s} = z{i} + {factor} * {ks[-1][i]}" for i in range(n)]
        step += lines + symexpr.finite_check(held, fail)
        ks.append(k)
    out_lines, ys, out_held = symexpr.emit(realization.outputs, state + params, "_y", consts)
    tup = symexpr.tuple_source
    body = [
        "steps = len(times) - 1",
        "half = 0.5 * h",
        "sixth = h / 6.0",
        f"{tup(state)} = z",
        f"{tup(params)} = params",
        f"{tup(consts.values())} = _consts",
        "states = [z]",
        "for k in range(steps):",
        f"    {tup(f'u{j}' for j in range(m))} = inputs[k]",
        f"    {tup(f'u{j}_m' for j in range(m))} = inputs[k + steps]",
        f"    {tup(f'u{j}_e' for j in range(m))} = inputs[k + 2 * steps]",
        *(f"    {line}" for line in symexpr.guarded(step, fail)),
        *(
            f"    {z} = {z} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
            for z, a, b, c, d in zip(state, *ks)
        ),
        *(f"    {line}" for line in symexpr.finite_check(state, fail)),
        f"    states.append({tup(state)})",
        "ys = []",
        f"for {tup(state)} in states:",
        *(f"    {line}" for line in symexpr.guarded(out_lines, no_output)),
        *(f"    {line}" for line in symexpr.finite_check(out_held, no_output)),
        f"    ys.append({tup(ys)})",
        "return states, ys",
    ]
    return symexpr.compiled_function(
        "z, params, inputs, times, h",
        body,
        _consts=tuple(consts),
        _SimulationError=SimulationError,
        _EvaluationError=EvaluationError,
    )


def rk4_simulate(realization, u, horizon, steps):
    """Classical fixed-step fourth-order Runge-Kutta integration.

    u has an eval(t) method returning the (m, len(t)) input values,
    such as the TaylorOutput that left_invert returns; it may be None
    when the realization has no inputs.  The input is evaluated once,
    vectorised on the step starts, midpoints and ends together; one
    compiled kernel per right-hand side then runs every step on Python
    floats, and the outputs after them.  Raises SimulationError with
    the first offending time if a stage or the state leaves the finite
    range, and EvaluationError if an output has no finite value.
    """
    if steps < 1:
        raise ValueError("RK4 needs at least one step")
    kernel = _compiled("rk4", realization, lambda rhs: _rk4_kernel(realization, rhs))
    h = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    starts = times[:-1]
    grid = np.concatenate((starts, starts + 0.5 * h, starts + h))
    inputs = u.eval(grid).T.tolist() if realization.n_inputs else [()] * grid.size
    states, outputs = kernel(realization.z0, realization.params, inputs, times, h)
    return Trajectory(times=times, states=np.array(states), outputs=np.array(outputs))


def _taylor_kernel(realization, rhs, degree):
    """One compiled function that runs Taylor-mode integration of dz/dt = rhs through t^degree.

    kernel(z0, known) returns the output jets; known[i] is the whole
    jet of variable n + i (the parameters', then the inputs').  Order k
    sets coefficient k of every jet, checks them as a SlotTape checks
    its slots, then sets z_{k+1} = [rhs]_k / (k+1).  Raises
    EvaluationError on a zero denominator, a zero base with a negative
    exponent, or a non-finite coefficient.
    """
    n = realization.n_states
    n_vars = n + len(realization.params) + realization.n_inputs
    var_jets = [[f"v{i}_{k}" for k in range(degree + 1)] for i in range(n_vars)]
    consts = {}
    steps, roots, every = symexpr.jet_steps(rhs + realization.outputs, var_jets, degree, consts)
    tup = symexpr.tuple_source
    body = [
        f"{tup(jet[0] for jet in var_jets[:n])} = z",
        *(f"{tup(jet)} = known[{i}]" for i, jet in enumerate(var_jets[n:])),
        f"{tup(consts.values())} = _consts",
    ]
    for k in range(degree + 1):
        fail = f"raise _EvaluationError('non-finite value in a Taylor jet at order {k}')"
        lines = [line for step in steps for line in symexpr.coefficient_source(*step, k)]
        body += symexpr.guarded(lines, fail) + symexpr.finite_check([jet[k] for jet in every], fail)
        if k < degree:
            body += [f"{var_jets[s][k + 1]} = {roots[s][k]} / {k + 1}" for s in range(n)]
    body.append(f"return {tup(tup(jet) for jet in roots[n:])}")
    return symexpr.compiled_function(
        "z, known", body, _consts=tuple(consts), _EvaluationError=EvaluationError
    )


def taylor_outputs(realization, u, degree):
    """Output Taylor coefficients through t^degree under polynomial inputs.

    u[i][k] are series-convention input coefficients, u_i(t) = sum_k
    u[i][k] t^k / k!.  Taylor-mode integration of the realization: with
    the jets of z known through t^k, the jets of the right-hand side
    give coefficient k of dz/dt = g0(z) + sum_i g_i(z) u_i(t), so
    z_{k+1} = [dz/dt]_k / (k+1).  The parameters' jets are constant and
    the inputs' jets are their normalised coefficients, both set whole
    before one compiled kernel per right-hand side and degree runs
    every order.  The truncated generating series of the same degree
    gives these coefficients exactly, so both agree up to rounding.
    Returns an (ell, degree+1) array in series convention
    (row j holds y_j^(k)(0)).  Raises EvaluationError when a jet meets
    a zero denominator, a zero base with a negative exponent, or a
    non-finite value.
    """
    if len(u) != realization.n_inputs:
        raise ValueError(f"need {realization.n_inputs} input expansions, got {len(u)}")
    known = [[p] + [0.0] * degree for p in realization.params]
    for ui in u:
        coeffs = [float(c) / math.factorial(k) for k, c in enumerate(ui[: degree + 1])]
        known.append(coeffs + [0.0] * (degree + 1 - len(coeffs)))
    kernel = _compiled(
        ("jet", degree), realization, lambda rhs: _taylor_kernel(realization, rhs, degree)
    )
    jets = kernel(realization.z0, known)
    out = [[c * math.factorial(k) for k, c in enumerate(jet)] for jet in jets]
    if not all(math.isfinite(c) for row in out for c in row):
        raise EvaluationError("non-finite output Taylor coefficient")
    return np.array(out)
