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
recursion on the constant term's inverse.  Degree k of a sweep's result
depends only on degrees below k of its input, so degree + 1 sweeps
from zero settle u; one more sweep checks that they did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fliess.composition import compose
from fliess.errors import (
    ConvergenceError,
    MapFormatError,
    MatchingConditionError,
    NoRelativeDegreeError,
    NonFiniteError,
    SingularDecouplingError,
)
from fliess.series import (
    SINGULARITY_RTOL,
    Series,
    VectorSeries,
    constant_term_inverse,
    drift_word,
    left_shift,
    word_key,
)

MATCHING_TOL = 1e-9


@dataclass
class TaylorOutput:
    """Per-channel Taylor expansions in series convention.

    coeffs[i][k] multiplies t^k / k!; all channels carry the same
    number of coefficients.
    """

    coeffs: list

    def __init__(self, coeffs):
        coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        if not coeffs:
            raise ValueError("need at least one channel")
        width = coeffs[0].shape[0]
        for c in coeffs:
            if c.shape != (width,):
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
        try:
            if obj.get("convention", "series") != "series":
                raise MapFormatError(f"unsupported Taylor convention {obj['convention']!r}")
            return cls(obj["outputs"])
        except (KeyError, TypeError) as exc:
            raise MapFormatError(f"malformed Taylor document: {exc}") from exc

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


def relative_degree(c, rank_rtol=SINGULARITY_RTOL):
    """Vector relative degree of a square vector series.

    For each component, r_i - 1 is the least number of leading drift
    letters over the forced support, the linear word x0^(r_i-1) x_j
    must actually appear, and the resulting constant decoupling matrix
    must pass the singular-value rank test.
    """
    if isinstance(c, Series):
        c = VectorSeries([c])
    m = c.alphabet_size - 1
    orders = []
    for i, comp in enumerate(c):
        forced = comp.forced_part()
        if forced.is_zero():
            raise NoRelativeDegreeError(i, f"output component {i} has no input dependence")
        r = 1 + min(_leading_drift_count(w) for w in forced.support())
        row = [comp.coeff(drift_word(r - 1) + (j,)) for j in range(1, m + 1)]
        if not any(abs(v) > 0.0 for v in row):
            raise NoRelativeDegreeError(
                i, f"output component {i}: no linear word at shift {r - 1}"
            )
        orders.append(r)
    a = np.array(
        [
            [c[i].coeff(drift_word(orders[i] - 1) + (j,)) for j in range(1, m + 1)]
            for i in range(len(c))
        ]
    )
    if a.shape[0] != a.shape[1]:
        raise SingularDecouplingError(
            f"decoupling matrix is {a.shape[0]}x{a.shape[1]}, need square"
        )
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= rank_rtol * sv[0]:
        raise SingularDecouplingError(
            f"decoupling matrix fails the rank test (sigma_min/sigma_max = {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    return RelativeDegree(orders=orders, decoupling=a)


class _DriftPlan:
    """Everything a sweep needs that does not depend on u.

    The words of the m*m series of C (row-major) and the m series of w,
    closed under suffixes, are numbered degree-then-lexicographically;
    ``weights`` holds the series as rows over that numbering.  ``steps``
    lists, per word length and head letter, the numbers of the words
    and of their tails, so each word's image is its tail's image times
    the head letter's matrix.
    """

    def __init__(self, targets, m, degree, a0_inv):
        words = set()
        for terms in targets:
            for w in terms:
                while w not in words:  # a known suffix brings all shorter ones
                    words.add(w)
                    w = w[1:]
        index = {w: i for i, w in enumerate(sorted(words, key=word_key))}
        self.weights = np.zeros((len(targets), len(index)))
        for row, terms in enumerate(targets):
            for w, coeff in terms.items():
                self.weights[row, index[w]] = coeff
        groups = {}
        for w, i in index.items():
            if w:
                rows, tails = groups.setdefault((len(w), w[0]), ([], []))
                rows.append(i)
                tails.append(index[w[1:]])
        self.steps = [
            (head, np.array(rows), np.array(tails))
            for (_, head), (rows, tails) in sorted(groups.items())
        ]
        self.m = m
        self.degree = degree
        self.a0_inv = a0_inv
        self.pascal = np.array(
            [[math.comb(n, k) for k in range(degree + 1)] for n in range(degree + 1)], dtype=float
        )
        lag = np.subtract.outer(np.arange(degree), np.arange(degree))
        self.lag = np.where(lag >= 0, lag, degree)  # index degree reads a padded zero


def _prefixed_shuffle(plan, a):
    """Matrix of v -> x0 (a sh v) acting on coefficient rows (v @ matrix)."""
    n = plan.degree
    toeplitz = np.append(a[:n], 0.0)[plan.lag]  # toeplitz[j, k] = a[j - k]
    out = np.zeros((n + 1, n + 1))
    out[:n, 1:] = (plan.pascal[:n, :n] * toeplitz).T
    return out


def _drift_sweep(plan, u):
    """One fixed-point sweep u -> -(C o u)^sh-1 sh (w o u)."""
    m, n = plan.m, plan.degree
    unit = np.zeros(n + 1)
    unit[0] = 1.0
    letters = [_prefixed_shuffle(plan, unit)] + [_prefixed_shuffle(plan, u_j) for u_j in u]
    images = np.zeros((plan.weights.shape[1], n + 1))
    images[0] = unit  # the empty word sorts first
    for head, rows, tails in plan.steps:
        images[rows] = images[tails] @ letters[head]
    composed = plan.weights @ images
    c_u = composed[: m * m].reshape(m, m, n + 1)
    w_u = composed[m * m :]
    # solve (C o u) sh z = w o u degree by degree; u = -z
    z = np.zeros((m, n + 1))
    for k in range(n + 1):
        acc = w_u[:, k].copy()
        for j in range(1, k + 1):
            acc -= plan.pascal[k, j] * (c_u[:, :, j] @ z[:, k - j])
        z[:, k] = plan.a0_inv @ acc
    return -z


def left_invert(c, c_y, degree, matching_tol=MATCHING_TOL):
    """Invert the plant series against a reference output expansion.

    c: VectorSeries with m components over m+1 letters, truncated to at
    least degree + max(r).  c_y: TaylorOutput with m channels.  Returns
    the input expansions as a TaylorOutput with coefficients 0..degree:
    the natural part of the group inverse of C^sh-1 sh w, computed as
    the drift-only fixed point described in the module docstring.
    Raises NonFiniteError when that expansion overflows.
    """
    if isinstance(c, Series):
        c = VectorSeries([c])
    m = c.alphabet_size - 1
    if len(c) != m:
        raise SingularDecouplingError(f"need a square plant, got {len(c)} outputs over {m} inputs")
    if c_y.n_channels != m:
        raise ValueError(f"reference has {c_y.n_channels} channels, plant has {m} outputs")
    rd = relative_degree(c)
    rmax = max(rd.orders)
    if c.max_degree < degree + rmax:
        raise ValueError(
            f"plant series degree {c.max_degree} too low: need degree+max(r) = {degree + rmax}"
        )
    for i, r in enumerate(rd.orders):
        ref = c_y.coeffs[i]
        for k in range(r):
            have = c[i].coeff(drift_word(k))
            want = ref[k] if k < ref.size else 0.0
            if abs(have - want) > matching_tol:
                raise MatchingConditionError(i, k, have, want, matching_tol)
    # C[i][j] = (x0^(r_i-1) x_j)^-1 (c_i) and w_i = (x0^r_i)^-1 (c_i - c_y,i),
    # both truncated to the inversion degree
    targets = [
        left_shift(drift_word(r - 1) + (j,), c[i]).truncate(degree).terms_dict()
        for i, r in enumerate(rd.orders)
        for j in range(1, m + 1)
    ]
    for i, r in enumerate(rd.orders):
        ref_series = c_y.channel(i, c.alphabet_size, c.max_degree)
        targets.append(left_shift(drift_word(r), c[i] - ref_series).truncate(degree).terms_dict())
    plan = _DriftPlan(targets, m, degree, constant_term_inverse(rd.decoupling))
    u = np.zeros((m, degree + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        for _ in range(degree + 1):
            u = _drift_sweep(plan, u)
        again = _drift_sweep(plan, u)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(again))):
        raise NonFiniteError("input expansion has non-finite coefficients")
    scale = 1.0 + max(np.max(np.abs(u)), np.max(np.abs(again)))
    if np.max(np.abs(u - again)) > 1e-9 * scale:
        raise ConvergenceError("drift-only fixed point did not stabilize within degree+1 sweeps")
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
