"""Composition products on truncated series.

The composition product realizes operator cascading, the modified
composition realizes cascading with a unit feedthrough, and the group
inverse inverts unit-feedthrough elements.  All three are word
recursions extended linearly:

    compose:   x0.eta -> x0 (eta o d)
               xi.eta -> x0 (d_i sh (eta o d))          i >= 1
    modified:  x0.eta -> x0 (eta ot d)
               xi.eta -> xi (eta ot d) + x0 (d_i sh (eta ot d))

Both map the empty word to the unit series.  Every letter contributes
at least one letter to the image, so the recursions truncate cleanly
and the group-inverse fixed point e = -(c ot e) stabilizes degree by
degree: degree k of e is final after k+1 sweeps.
"""

from __future__ import annotations

import numpy as np

from fliess.errors import AlphabetMismatchError, ConvergenceError
from fliess.series import EPS, Series, VectorSeries, _kept, _mix, _suffix_closure, shuffle_terms


def _word_images(words, d, degree, modified):
    """Map each needed word to its (modified) composition image.

    Images are plain word->coefficient dicts; every letter of the input
    word contributes at least one letter, so words longer than degree
    have empty images and are skipped outright.
    """
    d_terms = [comp.terms_dict() for comp in d]
    images = {(): {(): 1.0}}
    for w in sorted(_suffix_closure(words), key=len):
        if w in images or len(w) > degree:
            continue
        head, tail = w[0], w[1:]
        tail_image = images[tail]
        img = {}
        if head == 0:
            for u, cu in tail_image.items():
                if len(u) < degree:
                    img[(0,) + u] = cu
        else:
            fed = shuffle_terms(d_terms[head - 1], tail_image, degree - 1)
            for u, cu in fed.items():
                img[(0,) + u] = cu
            if modified:
                for u, cu in tail_image.items():
                    if len(u) < degree:
                        k = (head,) + u
                        cu = img.get(k, 0.0) + cu
                        if abs(cu) > EPS:
                            img[k] = cu
                        else:
                            img.pop(k, None)
        images[w] = img
    return images


def _check_operands(c, d, modified):
    if modified and c.alphabet_size != d.alphabet_size:
        raise AlphabetMismatchError(
            "modified composition needs both operands over the same alphabet"
        )
    if c.alphabet_size != len(d) + 1:
        raise AlphabetMismatchError(
            f"left operand has {c.alphabet_size - 1} input letters but right operand has "
            f"{len(d)} components"
        )


def _accumulate(c, images, degree, alphabet):
    acc = {}
    for w, coeff in c.terms_dict().items():
        if len(w) > degree:
            continue
        for u, cu in images[w].items():
            acc[u] = acc.get(u, 0.0) + coeff * cu
    return Series._raw(alphabet, degree, _kept(acc, "composition product"))


def _as_vector(c):
    return c if isinstance(c, VectorSeries) else VectorSeries([c])


def _compose(c, d, degree, modified):
    """(Modified) composition of a scalar or vector c with d; a scalar
    c is read as a 1-vector and its result unwrapped."""
    if degree is None:
        degree = min(c.max_degree, d.max_degree)
    rows = _as_vector(c)
    _check_operands(rows[0], d, modified)
    words = (w for row in rows for w in row.terms_dict())
    images = _word_images(words, d, degree, modified)
    out = VectorSeries([_accumulate(row, images, degree, d.alphabet_size) for row in rows])
    return out[0] if isinstance(c, Series) else out


def compose(c, d, degree=None):
    """Composition product c o d, truncated.

    c is a scalar or vector series whose input letters 1..m pair with
    the m components of d; the result lives over d's alphabet.
    """
    return _compose(c, d, degree, modified=False)


def modified_compose(c, d, degree=None):
    """Modified composition product, truncated.

    Realizes composition with the unit-feedthrough element carried by
    d: cascading c with (identity + d).
    """
    return _compose(c, d, degree, modified=True)


def group_inverse(c, degree=None):
    """Composition-group inverse of the unit-feedthrough element carried by c.

    c is a vector series with m components over the (m+1)-letter
    alphabet.  Returns e with (identity + c) o (identity + e) =
    identity, computed by running e <- -(c ot e) exactly degree+1
    times.  A final sweep cross-checks stabilization and raises
    ConvergenceError on disagreement (which would indicate an
    implementation fault, not bad data).
    """
    c = _as_vector(c)
    if c.alphabet_size != len(c) + 1:
        raise AlphabetMismatchError(
            f"group inverse needs m components over m+1 letters, got {len(c)} over {c.alphabet_size}"
        )
    if degree is None:
        degree = c.max_degree
    e = VectorSeries.zero(len(c), c.alphabet_size, 0)
    # sweep k leaves e exact through degree k, so truncating the k-th
    # sweep at degree k skips work on words that are not settled yet
    for k in range(degree + 1):
        e = -1.0 * modified_compose(c, e, k)
    again = -1.0 * modified_compose(c, e, degree)
    scale = 1.0 + max(e.max_abs_coeff(), again.max_abs_coeff())
    if e.max_abs_diff(again) > 1e-9 * scale:
        raise ConvergenceError(
            "group-inverse fixed point did not stabilize within degree+1 sweeps"
        )
    return e


class DeltaSeries:
    """Unit-feedthrough element: the identity plus a vector series base.

    The identity itself is never stored; only the base is.  Group
    elements compose as (I + c) o (I + d) = I + d + (c ot d) and invert
    through group_inverse.
    """

    __slots__ = ("base",)

    def __init__(self, base):
        base = _as_vector(base)
        if base.alphabet_size != len(base) + 1:
            raise AlphabetMismatchError(
                "unit-feedthrough element needs m components over m+1 letters"
            )
        self.base = base

    @classmethod
    def identity(cls, m, max_degree):
        return cls(VectorSeries.zero(m, m + 1, max_degree))

    def compose(self, other, degree=None):
        if isinstance(other, DeltaSeries):
            if degree is None:
                degree = min(self.base.max_degree, other.base.max_degree)
            return DeltaSeries(
                other.base.truncate(degree)
                + modified_compose(self.base, other.base, degree)
            )
        # (I + c) o d = d + c o d for a plain series d
        if degree is None:
            degree = min(self.base.max_degree, other.max_degree)
        return other.truncate(degree) + compose(self.base, other, degree)

    def inverse(self, degree=None):
        return DeltaSeries(group_inverse(self.base, degree))

    def __repr__(self):
        return f"DeltaSeries(identity + {self.base!r})"


def _static_mix(gain, plant, degree):
    g = np.atleast_2d(np.asarray(gain, dtype=float))
    if g.shape == (1, 1) and len(plant) > 1:
        g = g[0, 0] * np.eye(len(plant))
    if g.shape[1] != len(plant):
        raise ValueError("static gain width and plant output count differ")
    outputs = plant.truncate(degree).components
    return VectorSeries([_mix(row, outputs, degree) for row in g])


def feedback_product(c, d, degree=None):
    """Output feedback closure: c composed with the inverse of (identity - d o c).

    c is the plant series (scalar or vector).  d is the feedback map
    applied positively (closed loop input = external input + feedback
    of the output): a vector series for dynamic feedback, a
    DeltaSeries for feedback with unit feedthrough, or a scalar/matrix
    static gain (pass -1 for classical negative unity feedback).  The
    closed loop equals the modified composition of c with the group
    inverse of -(d o c).
    """
    plant = _as_vector(c)
    if degree is None:
        degree = c.max_degree
        if isinstance(d, VectorSeries):
            degree = min(degree, d.max_degree)
        elif isinstance(d, DeltaSeries):
            degree = min(degree, d.base.max_degree)
    if isinstance(d, DeltaSeries):
        loop = d.compose(plant, degree)  # (I + d0) o c = c + d0 o c
    elif isinstance(d, VectorSeries):
        loop = _as_vector(compose(d, plant, degree))
    else:
        loop = _static_mix(d, plant, degree)
    e = group_inverse(-1.0 * loop, degree)
    closed = modified_compose(c, e, degree)
    return closed
