"""Explicit left inversion of multivariable input-output operators.

Given the square plant series c (m outputs, m inputs) and a reference
output expansion c_y, the paper's inverse input series is

    c_u = natural part of the group inverse of  d = C^sh-1  sh  w

where r is the vector relative degree, C collects the left shifts of
c by the linear words x0^(r_i - 1) x_j, w = (x0^r)^-1 (c - c_y),
C^sh-1 is the matrix shuffle inverse, and the group inverse runs in
the composition group.  The reference must match the plant's drift
coefficients below the relative degree; those orders never enter the
formula itself, they are a hypothesis of the theorem, so they are
checked explicitly.

Only the natural (drift-only) part of the group inverse is needed, and
it is computed without forming C^sh-1 or the group inverse:

* The group inverse e solves e = -(d ot e).  The x_i branch of the
  modified composition never yields a drift-only word, so the natural
  part of d ot e is d o nat(e): u = nat(e) is the drift-only fixed
  point u = -(d o u).
* Composition with a drift-only u is a shuffle homomorphism,
  (a sh b) o u = (a o u) sh (b o u), so d o u = (C o u)^sh-1 sh (w o u)
  and the fixed point reads u = -(C o u)^sh-1 sh (w o u).

Drift-only series are coefficient vectors in series convention, where
x0^a sh x0^b = C(a+b, a) x0^(a+b): the shuffle is a binomial
convolution, the x0 prefix is a shift, the image of a word under o u
follows the suffix recursion  x0.eta -> x0 (eta o u),
x_j.eta -> x0 (u_j sh (eta o u)), and the shuffle inverse is a degree
recursion on the constant term's inverse.  The fixed point is
triangular in the grading: degree k of every image, and so of C o u
and w o u, reads only degrees below k of u.  One pass over the degrees
therefore extends the images, forms degree k of C o u and w o u, and
solves for u_k, with nothing to iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fliess import symexpr
from fliess.composition import compose
from fliess.errors import (
    MapFormatError,
    MatchingConditionError,
    NoRelativeDegreeError,
    NonFiniteError,
    SingularDecouplingError,
    decoding,
)
from fliess.realization import planned
from fliess.series import (
    EPS,
    SINGULARITY_RTOL,
    Series,
    VectorSeries,
    _suffix_closure,
    constant_term_inverse,
    drift_word,
    word_key,
)

MATCHING_TOL = 1e-9


@dataclass
class TaylorOutput:
    """Per-channel Taylor expansions in series convention.

    coeffs[i][k] multiplies t^k / k!; every channel is a non-empty
    list of numbers, and all carry the same number of coefficients.
    eval(t) gives the channels' values, so an input expansion from
    left_invert drives the simulator as it is.
    """

    coeffs: list

    def __init__(self, coeffs):
        coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        if not coeffs:
            raise ValueError("need at least one channel")
        for c in coeffs:
            if c.ndim != 1 or c.size == 0:
                raise ValueError("each channel must be a non-empty list of coefficients")
            if c.shape != coeffs[0].shape:
                raise ValueError("channels must carry equally many coefficients")
        self.coeffs = coeffs

    @property
    def n_channels(self):
        return len(self.coeffs)

    @property
    def degree(self):
        return self.coeffs[0].shape[0] - 1

    def eval(self, t):
        """Evaluate all channels at scalar or array t."""
        t = np.asarray(t, dtype=float)
        mono = [c / np.array([math.factorial(k) for k in range(c.size)]) for c in self.coeffs]
        return np.array([np.polynomial.polynomial.polyval(t, c) for c in mono])

    def padded(self, degree):
        """Coefficients 0..degree as a (channels, degree+1) array, zero past the expansion."""
        out = np.zeros((self.n_channels, degree + 1))
        for i, c in enumerate(self.coeffs):
            width = min(c.size, degree + 1)
            out[i, :width] = c[:width]
        return out

    def channel(self, i, alphabet_size, max_degree):
        """Channel i as a drift-only series."""
        return Series.from_taylor(self.coeffs[i], alphabet_size, max_degree)

    def as_vector_series(self, alphabet_size, max_degree):
        return VectorSeries([self.channel(i, alphabet_size, max_degree) for i in range(self.n_channels)])

    def to_json_dict(self):
        return {"outputs": [list(c) for c in self.coeffs], "convention": "series"}

    @classmethod
    def from_json_dict(cls, obj):
        with decoding("Taylor", obj):
            if obj.get("convention", "series") != "series":
                raise MapFormatError(f"unsupported Taylor convention {obj['convention']!r}")
            return cls(obj["outputs"])

    @classmethod
    def from_series(cls, series, degree):
        """Extract drift coefficients 0..degree from a (vector) series."""
        if isinstance(series, Series):
            series = VectorSeries([series])
        return cls([c.taylor_coeffs(degree + 1) for c in series])


@dataclass
class RelativeDegree:
    orders: list           # r_i per output
    decoupling: np.ndarray  # A[i][j] = (c_i, x0^(r_i-1) x_j)


def _leading_drift_count(word):
    k = 0
    for letter in word:
        if letter != 0:
            break
        k += 1
    return k


def _linear_positions(plan):
    """Positions of the drift words x0^k and the linear words x0^k x_j, keyed (output, word)."""
    return {
        (i, w): lo + q
        for i, (words, lo) in enumerate(zip(plan.words, plan.offsets))
        for q, w in enumerate(words)
        if not any(w[:-1])
    }


def _coeff(plan, values, i, word):
    """Coefficient of a drift or linear word in component i: its value, zero when |value| <= EPS."""
    p = plan.derive("linear", _linear_positions).get((i, word))
    if p is None:
        return 0.0
    v = values[p]
    return v if abs(v) > EPS else 0.0


def _forced_by_shift(plan):
    """Per output, the positions of its forced words grouped by leading drift count, ascending."""
    out = []
    for words, lo in zip(plan.words, plan.offsets):
        groups = {}
        for q, w in enumerate(words):
            if any(w):
                groups.setdefault(_leading_drift_count(w), []).append(lo + q)
        out.append([(k, np.array(groups[k])) for k in sorted(groups)])
    return out


def relative_degree(c):
    """Vector relative degree of a square vector series.

    For each component, r_i - 1 is the least number of leading drift
    letters over the forced support, the linear word x0^(r_i-1) x_j
    must actually appear, and the resulting constant decoupling matrix
    must pass the singular-value rank test.  Reads the values at the
    plan's positions (see ``fliess.realization.planned``), with the
    series' EPS filter.
    """
    c = planned(c)
    plan, values = c.plan, c.values
    m = plan.alphabet_size - 1
    orders = []
    for i, forced in enumerate(plan.derive("forced", _forced_by_shift)):
        shift = next((k for k, group in forced for p in group if abs(values[p]) > EPS), None)
        if shift is None:
            raise NoRelativeDegreeError(i, f"output component {i} has no input dependence")
        r = 1 + shift
        row = [_coeff(plan, values, i, drift_word(r - 1) + (j,)) for j in range(1, m + 1)]
        if not any(abs(v) > 0.0 for v in row):
            raise NoRelativeDegreeError(
                i, f"output component {i}: no linear word at shift {r - 1}"
            )
        orders.append(r)
    a = np.array(
        [
            [_coeff(plan, values, i, drift_word(orders[i] - 1) + (j,)) for j in range(1, m + 1)]
            for i in range(plan.n_outputs)
        ]
    )
    if a.shape[0] != a.shape[1]:
        raise SingularDecouplingError(
            f"decoupling matrix is {a.shape[0]}x{a.shape[1]}, need square"
        )
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= SINGULARITY_RTOL * sv[0]:
        raise SingularDecouplingError(
            f"decoupling matrix fails the rank test (sigma_min/sigma_max = {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    return RelativeDegree(orders=orders, decoupling=a)


class _ShiftMaps:
    """Where the plan's values land in the left-shift targets.

    One per plan, inversion degree and relative degree.  The target
    rows are C[i][j] = (x0^(r_i-1) x_j)^-1 c_i, row-major, then
    w_i = (x0^r_i)^-1 (c_i - c_y,i), all truncated to the inversion
    degree.  Every word a target can hold, closed under suffixes, is
    numbered in word_key order: ``tails`` gives each word's tail and
    ``groups`` lists, per head letter, the words and their tails.
    ``read`` takes the plan-aligned values, with one zero appended, to
    the entries: entry e lands at (``rows[e]``, ``cols[e]``).  The
    entries from ``n_forced`` on are the drift words of w, from which
    the reference coefficients (i, k) listed in ``drift`` are
    subtracted; where the plan lacks such a word, the entry reads the
    appended zero.
    """

    def __init__(self, plan, degree, orders):
        m = len(orders)
        linear = plan.derive("linear", _linear_positions)
        entries, drift_entries = [], []  # (row, target word, plan position)
        self.drift = []
        for i, r in enumerate(orders):
            lo = plan.offsets[i]
            for q, w in enumerate(plan.words[i]):
                tail = w[r:]
                if len(w) < r or len(tail) > degree or any(w[: r - 1]):
                    continue
                if w[r - 1]:
                    entries.append((i * m + w[r - 1] - 1, tail, lo + q))
                elif any(tail):
                    entries.append((m * m + i, tail, lo + q))
            for k in range(r, min(r + degree, plan.degree) + 1):
                position = linear.get((i, drift_word(k)), plan.n_values)
                drift_entries.append((m * m + i, drift_word(k - r), position))
                self.drift.append((i, k))
        self.n_forced = len(entries)
        entries += drift_entries
        words = sorted(_suffix_closure(w for _, w, _ in entries), key=word_key)
        index = {w: u for u, w in enumerate(words)}
        self.n_words = len(words)
        self.rows = np.array([row for row, _, _ in entries], dtype=np.intp)
        self.cols = np.array([index[w] for _, w, _ in entries], dtype=np.intp)
        self.read = symexpr.reader([p for _, _, p in entries])
        self.tails = np.array([index[w[1:]] if w else 0 for w in words], dtype=np.intp)
        # words of length L occupy [bounds[L], bounds[L + 1])
        self.bounds = np.searchsorted([len(w) for w in words], np.arange(degree + 2))
        groups = {}
        for u, w in enumerate(words):
            if w:
                groups.setdefault(w[0], []).append(u)
        self.groups = [
            (head, np.array(us, dtype=np.intp), self.tails[us])
            for head, us in sorted(groups.items())
        ]
        self.m = m
        self.degree = degree
        self.pascal = np.array(
            [[math.comb(n, k) for k in range(degree + 1)] for n in range(degree + 1)], dtype=float
        )


def _graded_inverse(maps, values, refs, a0_inv):
    """The drift-only fixed point u = -(C o u)^sh-1 sh (w o u), degree by degree.

    The words of the m*m series of C (row-major) and the m series of w
    with |coefficient| > EPS, closed under suffixes, are gathered from
    the shift maps on this section's live words and numbered
    degree-then-lexicographically; ``weights`` holds the series as rows
    over that numbering, so the column set, which decides the rounding
    of ``weights @ images[k]``, follows the live support.  At degree k
    every live word's image under o u gains its degree-k coefficient
    from degrees below k (x0.eta copies eta's degree k-1, x_j.eta takes
    sum_b C(k-1, b) u_j[k-1-b] eta[b]), one product gives degree k of
    C o u and of w o u, and u_k solves the shuffle equation's degree-k
    row through the constant term's inverse a0_inv.
    """
    coeffs = np.array(maps.read(values + (0.0,)))  # the missing word reads the zero
    coeffs[np.abs(coeffs) <= EPS] = 0.0
    drift = coeffs[maps.n_forced :]
    drift -= refs
    drift[np.abs(drift) <= EPS] = 0.0
    kept = coeffs != 0.0
    live = np.zeros(maps.n_words, dtype=bool)
    live[maps.cols[kept]] = True
    for length in range(len(maps.bounds) - 2, 0, -1):
        lo, hi = maps.bounds[length], maps.bounds[length + 1]
        live[maps.tails[lo:hi][live[lo:hi]]] = True
    number = np.cumsum(live) - 1
    weights = np.zeros((maps.m * (maps.m + 1), np.count_nonzero(live)))
    weights[maps.rows[kept], number[maps.cols[kept]]] = coeffs[kept]
    steps = [
        (head, number[words[live[words]]], number[tails[live[words]]])
        for head, words, tails in maps.groups
        if live[words].any()
    ]
    m, n, pascal = maps.m, maps.degree, maps.pascal
    images = np.zeros((n + 1, weights.shape[1]))
    images[0, 0] = 1.0  # the empty word sorts first, and its image is 1
    c_u = np.zeros((n + 1, m, m))
    u = np.zeros((m, n + 1))
    for k in range(n + 1):
        for head, rows, tails in steps if k > 0 else ():  # degree 0 is the unit alone
            if head == 0:
                images[k, rows] = images[k - 1, tails]
            else:
                images[k, rows] = (pascal[k - 1, :k] * u[head - 1, k - 1 :: -1]) @ images[:k, tails]
        composed = weights @ images[k]
        c_u[k] = composed[: m * m].reshape(m, m)
        acc = composed[m * m :]  # degree k of w o u
        for j in range(1, k + 1):
            acc += pascal[k, j] * (c_u[j] @ u[:, k - j])
        u[:, k] = -(a0_inv @ acc)
    return u


def left_invert(c, c_y, degree):
    """Invert the plant series against a reference output expansion.

    c: VectorSeries with m components over m+1 letters, truncated to at
    least degree + max(r).  c_y: TaylorOutput with m channels.  Returns
    the input expansions as a TaylorOutput with coefficients 0..degree:
    the natural part of the group inverse of C^sh-1 sh w, solved as the
    drift-only fixed point in one pass over the degrees (see the module
    docstring).  Reads c through its table plan and plan-aligned
    values: a generating series carries them, any other series gets a
    plan read off its terms.  Raises NonFiniteError for a non-finite
    reference coefficient and when the input expansion overflows.
    """
    c = planned(c)
    plan, values = c.plan, c.values
    m = plan.alphabet_size - 1
    if plan.n_outputs != m:
        raise SingularDecouplingError(
            f"need a square plant, got {plan.n_outputs} outputs over {m} inputs"
        )
    if c_y.n_channels != m:
        raise ValueError(f"reference has {c_y.n_channels} channels, plant has {m} outputs")
    if degree < 0:
        raise ValueError(f"inversion degree must be non-negative, got {degree}")
    if not np.all(np.isfinite(c_y.coeffs)):  # NaN would pass the matching comparison
        raise NonFiniteError("reference expansion has non-finite coefficients")
    rd = relative_degree(c)
    rmax = max(rd.orders)
    if plan.degree < degree + rmax:
        raise ValueError(
            f"plant series degree {plan.degree} too low: need degree+max(r) = {degree + rmax}"
        )
    reference = c_y.padded(plan.degree)
    for i, r in enumerate(rd.orders):
        for k in range(r):
            have = _coeff(plan, values, i, drift_word(k))
            want = float(reference[i, k])
            if abs(have - want) > MATCHING_TOL:
                raise MatchingConditionError(i, k, have, want, MATCHING_TOL)
    orders = tuple(rd.orders)
    maps = plan.derive(("shift", degree, orders), lambda p: _ShiftMaps(p, degree, orders))
    reference[np.abs(reference) <= EPS] = 0.0
    refs = np.array([reference[i, k] for i, k in maps.drift])
    a0_inv = constant_term_inverse(rd.decoupling)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        u = _graded_inverse(maps, values, refs, a0_inv)
    if not np.all(np.isfinite(u)):
        raise NonFiniteError("input expansion has non-finite coefficients")
    return TaylorOutput(list(u))


def tracking_error_series(c, c_u, c_y, degree):
    """Coefficient-level tracking error of the reconstructed output.

    Composes the plant with the drift-only embedding of c_u, truncates
    to the requested degree, and returns (ell, degree+1) coefficient
    differences c_y - (c o c_u) in series convention.  Coefficients
    through the inversion degree vanish by construction; the entries
    are exact as long as the plant series carries at least the
    requested degree.  This is the reference computation in the series
    algebra: the pipeline no longer calls it, and takes the same
    residual from the realization with
    ``fliess.realization.taylor_outputs`` instead.
    """
    if isinstance(c, Series):
        c = VectorSeries([c])
    u_embedded = c_u.as_vector_series(c.alphabet_size, degree)
    yhat = compose(c, u_embedded, degree)
    drift = np.array([[comp.coeff(drift_word(k)) for k in range(degree + 1)] for comp in yhat])
    return c_y.padded(degree) - drift
