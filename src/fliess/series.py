"""Truncated formal power series over a finite noncommutative alphabet.

A series is a sparse map from words to real coefficients.  Words are
tuples of letter indices drawn from {0, ..., alphabet_size-1}; letter 0
is reserved for the drift direction throughout the library, letters
1..m for the inputs.  Series are truncated: words longer than
max_degree are never stored, and coefficients with magnitude below
1e-15 are dropped after every arithmetic step so zero stays canonical.
The public constructor and addition reject NaN and infinite
coefficients with NonFiniteError, so they cannot pass that filter as
zeros; the products (scalar, shuffle, catenation and composition)
share one such filter, ``_kept``.

Truncation degree is a property of each operation call.  When the
degree argument is omitted an operation uses the smallest operand
degree (jet semantics: it never silently extends what is known);
passing an explicit degree treats the operands as exact polynomials.

Deterministic ordering everywhere is degree-then-lexicographic.
"""

from __future__ import annotations

import json
import math

from fliess.errors import (
    AlphabetMismatchError,
    MapFormatError,
    NonFiniteError,
    SingularConstantTermError,
)

import numpy as np

EPS = 1e-15

EMPTY_WORD = ()

#: relative tolerance of the decoupling-matrix / constant-term rank test
SINGULARITY_RTOL = 1e-10


def word_key(word):
    """Sort key for degree-then-lexicographic order."""
    return (len(word), word)


def word_str(word):
    if not word:
        return "e"
    return "".join(f"x{i}" for i in word)


def drift_word(k):
    """The word x0^k."""
    return (0,) * k


def _reject_infinite(terms, what):
    """Raise NonFiniteError if an arithmetic result holds an infinite
    coefficient.  A NaN result fails the EPS filter instead, so the
    branch that drops a term checks for it."""
    if terms and max(map(abs, terms.values())) == math.inf:
        word = next(w for w, c in terms.items() if abs(c) == math.inf)
        raise NonFiniteError(f"coefficient of {word_str(word)} is {terms[word]!r} in a {what}")


def _kept(terms, what):
    """The terms of an arithmetic result with |coefficient| > EPS.

    Raises NonFiniteError on a NaN or infinite coefficient, so neither
    can pass the filter as a zero.
    """
    kept = {}
    for w, c in terms.items():
        if abs(c) > EPS:
            kept[w] = c
        elif c != c:
            raise NonFiniteError(f"coefficient of {word_str(w)} is nan in a {what}")
    _reject_infinite(kept, what)
    return kept


def _suffix_closure(words):
    """The set of all suffixes of the given words, the empty word included."""
    closed = set()
    for w in words:
        while w not in closed:  # a known suffix brings all shorter ones
            closed.add(w)
            w = w[1:]
    return closed


class Series:
    """Scalar truncated series.  Treat instances as immutable."""

    __slots__ = ("alphabet_size", "max_degree", "_terms")

    def __init__(self, alphabet_size, max_degree, terms=None):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.alphabet_size = int(alphabet_size)
        self.max_degree = int(max_degree)
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for w, c in items:
                w = tuple(int(i) for i in w)
                for letter in w:
                    if not 0 <= letter < self.alphabet_size:
                        raise ValueError(f"letter {letter} outside alphabet of size {self.alphabet_size}")
                c = float(c)
                if not math.isfinite(c):
                    raise NonFiniteError(f"coefficient of {word_str(w)} is {c!r}")
                if len(w) > self.max_degree:
                    continue
                clean[w] = clean.get(w, 0.0) + c
        self._terms = {w: c for w, c in clean.items() if abs(c) > EPS}

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, alphabet_size, max_degree, terms):
        """Trusted constructor for internal hot paths.

        terms must already be canonical: tuple words over the alphabet,
        lengths within max_degree, no near-zero coefficients.  The dict
        is adopted without copying.
        """
        self = object.__new__(cls)
        self.alphabet_size = alphabet_size
        self.max_degree = max_degree
        self._terms = terms
        return self

    @classmethod
    def zero(cls, alphabet_size, max_degree):
        return cls(alphabet_size, max_degree)

    @classmethod
    def unit(cls, alphabet_size, max_degree):
        """The empty-word series (multiplicative identity of both products)."""
        return cls(alphabet_size, max_degree, {EMPTY_WORD: 1.0})

    @classmethod
    def monomial(cls, word, alphabet_size, max_degree, coeff=1.0):
        return cls(alphabet_size, max_degree, {tuple(word): coeff})

    @classmethod
    def from_taylor(cls, coeffs, alphabet_size, max_degree):
        """Drift-only series sum_k coeffs[k] x0^k."""
        return cls(alphabet_size, max_degree, {drift_word(k): c for k, c in enumerate(coeffs)})

    # -- basic accessors ----------------------------------------------

    def coeff(self, word):
        return self._terms.get(tuple(word), 0.0)

    def items(self):
        """Terms in degree-then-lexicographic order."""
        return sorted(self._terms.items(), key=lambda kv: word_key(kv[0]))

    def support(self):
        return set(self._terms)

    def terms_dict(self):
        """The raw sparse map (do not mutate)."""
        return self._terms

    def is_zero(self):
        return not self._terms

    def constant_term(self):
        return self._terms.get(EMPTY_WORD, 0.0)

    def max_abs_coeff(self):
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- linear structure ---------------------------------------------

    def _check_compatible(self, other):
        if self.alphabet_size != other.alphabet_size:
            raise AlphabetMismatchError(
                f"alphabet sizes differ: {self.alphabet_size} vs {other.alphabet_size}"
            )

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        deg = min(self.max_degree, other.max_degree)
        if deg == self.max_degree:
            out = dict(self._terms)
        else:
            out = {w: c for w, c in self._terms.items() if len(w) <= deg}
        for w, c in other._terms.items():
            if len(w) > deg:
                continue
            c = out.get(w, 0.0) + c
            if abs(c) > EPS:
                out[w] = c
            elif c != c:
                raise NonFiniteError(f"coefficient of {word_str(w)} is nan in a sum")
            else:
                out.pop(w, None)
        _reject_infinite(out, "sum")
        return Series._raw(self.alphabet_size, deg, out)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        scalar = float(scalar)
        out = _kept({w: c * scalar for w, c in self._terms.items()}, "scalar product")
        return Series._raw(self.alphabet_size, self.max_degree, out)

    __rmul__ = __mul__

    def truncate(self, degree):
        """Drop words longer than degree.  Never extends max_degree upward content-wise."""
        degree = int(degree)
        if degree < 0:
            raise ValueError("max_degree must be nonnegative")
        return Series._raw(
            self.alphabet_size,
            degree,
            {w: c for w, c in self._terms.items() if len(w) <= degree},
        )

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and self._terms == other._terms

    def __hash__(self):
        return hash((self.alphabet_size, frozenset(self._terms.items())))

    def allclose(self, other, rtol=1e-9, atol=1e-12):
        self._check_compatible(other)
        words = set(self._terms) | set(other._terms)
        for w in words:
            a = self._terms.get(w, 0.0)
            b = other._terms.get(w, 0.0)
            if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
                return False
        return True

    def max_abs_diff(self, other):
        words = set(self._terms) | set(other._terms)
        return max((abs(self._terms.get(w, 0.0) - other._terms.get(w, 0.0)) for w in words), default=0.0)

    # -- display -------------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return "Series<0>"
        parts = [f"{c:g}*{word_str(w)}" for w, c in self.items()]
        body = " + ".join(parts).replace("+ -", "- ")
        return f"Series<{body}>"

    # -- structure maps -------------------------------------------------

    def natural_part(self):
        """Projection onto drift-only words x0^k."""
        return Series._raw(
            self.alphabet_size,
            self.max_degree,
            {w: c for w, c in self._terms.items() if not any(w)},
        )

    def forced_part(self):
        return Series._raw(
            self.alphabet_size,
            self.max_degree,
            {w: c for w, c in self._terms.items() if any(w)},
        )

    def taylor_coeffs(self, count=None):
        """Coefficients on x0^k for k = 0..count-1 (defaults to max_degree+1)."""
        n = self.max_degree + 1 if count is None else count
        return np.array([self._terms.get(drift_word(k), 0.0) for k in range(n)])

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {
            "alphabet_size": self.alphabet_size,
            "max_degree": self.max_degree,
            "terms": [
                {"word": list(w), "coeff": c} for w, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj):
        try:
            terms = {tuple(t["word"]): t["coeff"] for t in obj["terms"]}
            return cls(obj["alphabet_size"], obj["max_degree"], terms)
        except (KeyError, TypeError) as exc:
            raise MapFormatError(f"malformed series document: {exc}") from exc


class VectorSeries:
    """Tuple of scalar series sharing one alphabet and truncation degree."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("VectorSeries needs at least one component")
        first = components[0]
        for c in components[1:]:
            if c.alphabet_size != first.alphabet_size:
                raise AlphabetMismatchError("components disagree on alphabet size")
            if c.max_degree != first.max_degree:
                raise ValueError("components disagree on max_degree")
        self.components = components

    @classmethod
    def zero(cls, n, alphabet_size, max_degree):
        return cls([Series.zero(alphabet_size, max_degree) for _ in range(n)])

    @property
    def alphabet_size(self):
        return self.components[0].alphabet_size

    @property
    def max_degree(self):
        return self.components[0].max_degree

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __add__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError("component counts differ")
        return VectorSeries([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return VectorSeries([c * scalar for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "VectorSeries[" + ", ".join(repr(c) for c in self.components) + "]"

    def truncate(self, degree):
        return VectorSeries([c.truncate(degree) for c in self.components])

    def natural_part(self):
        return VectorSeries([c.natural_part() for c in self.components])

    def forced_part(self):
        return VectorSeries([c.forced_part() for c in self.components])

    def allclose(self, other, rtol=1e-9, atol=1e-12):
        return all(a.allclose(b, rtol, atol) for a, b in zip(self.components, other.components))

    def max_abs_diff(self, other):
        return max(a.max_abs_diff(b) for a, b in zip(self.components, other.components))

    def max_abs_coeff(self):
        return max(c.max_abs_coeff() for c in self.components)

    def to_json_dict(self):
        return {"components": [c.to_json_dict() for c in self.components]}

    @classmethod
    def from_json_dict(cls, obj):
        try:
            return cls([Series.from_json_dict(c) for c in obj["components"]])
        except (KeyError, TypeError) as exc:
            raise MapFormatError(f"malformed vector-series document: {exc}") from exc


class MatrixSeries:
    """Rectangular array of scalar series; shuffle plays scalar multiplication."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise ValueError("MatrixSeries needs at least one entry")
        width = len(entries[0])
        first = entries[0][0]
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            for e in row:
                if e.alphabet_size != first.alphabet_size:
                    raise AlphabetMismatchError("entries disagree on alphabet size")
                if e.max_degree != first.max_degree:
                    raise ValueError("entries disagree on max_degree")
        self.entries = entries

    @classmethod
    def identity(cls, n, alphabet_size, max_degree):
        return cls(
            [
                [
                    Series.unit(alphabet_size, max_degree)
                    if i == j
                    else Series.zero(alphabet_size, max_degree)
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    @property
    def alphabet_size(self):
        return self.entries[0][0].alphabet_size

    @property
    def max_degree(self):
        return self.entries[0][0].max_degree

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other):
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shapes differ")
        return MatrixSeries(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return MatrixSeries([[e * scalar for e in row] for row in self.entries])

    __rmul__ = __mul__

    def constant_matrix(self):
        return np.array([[e.constant_term() for e in row] for row in self.entries])

    def allclose(self, other, rtol=1e-9, atol=1e-12):
        return all(
            a.allclose(b, rtol, atol)
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def to_json_dict(self):
        return {"entries": [[e.to_json_dict() for e in row] for row in self.entries]}

    @classmethod
    def from_json_dict(cls, obj):
        try:
            return cls([[Series.from_json_dict(e) for e in row] for row in obj["entries"]])
        except (KeyError, TypeError) as exc:
            raise MapFormatError(f"malformed matrix-series document: {exc}") from exc


# ---------------------------------------------------------------------------
# products


def _effective_degree(a, b, degree):
    if degree is None:
        return min(a.max_degree, b.max_degree)
    return degree


# Word-pair shuffles memoized across calls: the same pairs recur in
# series and composition products, and the values are exact integer
# multiplicities.
_PAIR_CACHE = {}


def _shuffle_words(u, v):
    # multiplicity map of all interleavings of u and v
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v) if u <= v else (v, u)
    hit = _PAIR_CACHE.get(key)
    if hit is not None:
        return hit
    out = {}
    a = (u[0],)
    for w, mult in _shuffle_words(u[1:], v).items():
        aw = a + w
        out[aw] = out.get(aw, 0) + mult
    b = (v[0],)
    for w, mult in _shuffle_words(u, v[1:]).items():
        bw = b + w
        out[bw] = out.get(bw, 0) + mult
    _PAIR_CACHE[key] = out
    return out


def shuffle_terms(a, b, max_degree):
    """Shuffle product of two sparse coefficient maps, truncated.

    a, b: dict word-tuple -> float.  Returns a new dict with
    |coefficient| <= EPS entries dropped.  Raises NonFiniteError when
    a coefficient overflows to inf or turns NaN (a NaN would fail the
    filter and vanish as a zero).
    """
    out = {}
    for ua, ca in a.items():
        la = len(ua)
        if la > max_degree:
            continue
        for ub, cb in b.items():
            if la + len(ub) > max_degree:
                continue
            prod = ca * cb
            for w, mult in _shuffle_words(ua, ub).items():
                out[w] = out.get(w, 0.0) + prod * mult
    return _kept(out, "shuffle product")


def _shuffle_scalar(a, b, degree):
    a._check_compatible(b)
    terms = shuffle_terms(a._terms, b._terms, degree)
    return Series._raw(a.alphabet_size, degree, terms)


def shuffle(a, b, degree=None):
    """Shuffle product, truncated to degree.

    Accepts scalar/scalar, scalar/vector (componentwise), matrix/matrix
    (matrix product with shuffle as scalar multiplication) and
    matrix/vector operands.
    """
    if isinstance(a, Series) and isinstance(b, Series):
        return _shuffle_scalar(a, b, _effective_degree(a, b, degree))
    if isinstance(a, Series) and isinstance(b, VectorSeries):
        deg = _effective_degree(a, b, degree)
        return VectorSeries([_shuffle_scalar(a, c, deg) for c in b])
    if isinstance(a, VectorSeries) and isinstance(b, Series):
        return shuffle(b, a, degree)
    if isinstance(a, MatrixSeries) and isinstance(b, MatrixSeries):
        deg = _effective_degree(a, b, degree)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
        columns = list(zip(*b.entries))
        return MatrixSeries([[_shuffle_dot(row, col, deg) for col in columns] for row in a.entries])
    if isinstance(a, MatrixSeries) and isinstance(b, VectorSeries):
        deg = _effective_degree(a, b, degree)
        if a.shape[1] != len(b):
            raise ValueError("matrix width and vector length differ")
        return VectorSeries([_shuffle_dot(row, b.components, deg) for row in a.entries])
    raise TypeError(f"unsupported operand types for shuffle: {type(a)}, {type(b)}")


def _shuffle_dot(row, col, degree):
    """Sum of the shuffles row[s] sh col[s], truncated to degree."""
    acc = Series.zero(row[0].alphabet_size, degree)
    for a, b in zip(row, col):
        acc = acc + _shuffle_scalar(a, b, degree)
    return acc


def shuffle_power(a, k, degree=None):
    """k-fold shuffle power of a scalar series (k=0 gives the unit)."""
    deg = a.max_degree if degree is None else degree
    out = Series.unit(a.alphabet_size, deg)
    for _ in range(k):
        out = shuffle(out, a, deg)
    return out


def catenate(a, b, degree=None):
    """Catenation (concatenation) product of scalar series."""
    a._check_compatible(b)
    deg = _effective_degree(a, b, degree)
    out = {}
    for ua, ca in a._terms.items():
        if len(ua) > deg:
            continue
        for ub, cb in b._terms.items():
            if len(ua) + len(ub) > deg:
                continue
            w = ua + ub
            out[w] = out.get(w, 0.0) + ca * cb
    return Series._raw(a.alphabet_size, deg, _kept(out, "catenation product"))


def letter_prefixed(letter, s, degree):
    """The series x_letter * s truncated to degree (left catenation by one letter)."""
    letter = int(letter)
    if not 0 <= letter < s.alphabet_size:
        raise ValueError(f"letter {letter} outside alphabet of size {s.alphabet_size}")
    out = {}
    for w, c in s._terms.items():
        if len(w) + 1 <= degree:
            out[(letter,) + w] = c
    return Series._raw(s.alphabet_size, degree, out)


def left_shift(prefix, s):
    """Left-shift operator: strips prefix from the front of every word.

    x_i^-1(x_i eta) = eta and zero otherwise, extended so a word prefix
    acts letter by letter.  Componentwise on vectors.
    """
    if isinstance(s, VectorSeries):
        return VectorSeries([left_shift(prefix, c) for c in s])
    prefix = tuple(prefix)
    k = len(prefix)
    out = {}
    for w, c in s._terms.items():
        if len(w) >= k and w[:k] == prefix:
            out[w[k:]] = c
    return Series._raw(s.alphabet_size, s.max_degree, out)


def constant_term_inverse(a0):
    """Inverse of a square constant-term matrix.

    Raises SingularConstantTermError when the matrix fails the
    singular-value rank test.
    """
    sv = np.linalg.svd(a0, compute_uv=False)
    if sv[-1] <= SINGULARITY_RTOL * sv[0] or sv[0] == 0.0:
        raise SingularConstantTermError(
            f"constant-term matrix is singular (sigma_min/sigma_max = {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    return np.linalg.inv(a0)


def shuffle_inverse(c, degree=None):
    """Shuffle inverse of a square matrix series (or a scalar, read as 1x1).

    Writes C = A(I - C') with A the constant-term matrix and C' proper,
    then sums the finite geometric shuffle series of C' and multiplies
    by A^-1 on the right.  Raises SingularConstantTermError when A
    fails the singular-value rank test.
    """
    scalar = isinstance(c, Series)
    if scalar:
        c = MatrixSeries([[c]])
    n, m = c.shape
    if n != m:
        raise ValueError("shuffle inverse needs a square matrix")
    deg = c.max_degree if degree is None else degree
    a0_inv = constant_term_inverse(c.constant_matrix())
    columns = [[e.truncate(deg) for e in col] for col in zip(*c.entries)]
    # proper remainder C' = I - A^-1 C
    ainv_c = MatrixSeries([[_mix(a0_inv[i], col, deg) for col in columns] for i in range(n)])
    cp = MatrixSeries.identity(n, c.alphabet_size, deg) - ainv_c
    # geometric series: I + C' + C'^2 + ... (C' proper, so degree-k terms stop at k = deg)
    star = MatrixSeries.identity(n, c.alphabet_size, deg)
    power = MatrixSeries.identity(n, c.alphabet_size, deg)
    for _ in range(deg):
        power = shuffle(power, cp, deg)
        star = star + power
    out = MatrixSeries([[_mix(a0_inv[:, j], row, deg) for j in range(n)] for row in star.entries])
    if scalar:
        return out.entries[0][0]
    return out


def _mix(gains, series, degree):
    """The series sum_s gains[s] * series[s], truncated to degree."""
    acc = Series.zero(series[0].alphabet_size, degree)
    for g, s in zip(gains, series):
        acc = acc + s * g
    return acc


# ---------------------------------------------------------------------------
# JSON helpers shared by the CLI


def load_json_document(path):
    with open(path) as fh:
        return json.load(fh)


def series_from_json(obj):
    """Detect and decode a scalar, vector, or matrix series document."""
    if "terms" in obj:
        return Series.from_json_dict(obj)
    if "components" in obj:
        return VectorSeries.from_json_dict(obj)
    if "entries" in obj:
        return MatrixSeries.from_json_dict(obj)
    raise MapFormatError("document is not a series (expected terms/components/entries)")


def dump_json(obj, path):
    if hasattr(obj, "to_json_dict"):
        obj = obj.to_json_dict()
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
