"""Pure-Python kernels for the hot word-algebra loops.

Mirror of the compiled module fliess._kernels._fast; both expose the
same functions with identical semantics (and identical floating-point
accumulation order, so results match bit for bit).

Words are tuples of small ints.  The word-pair shuffle is memoized in
a module-level table: the same pairs recur constantly across series
products, composition products, and the sectioned car pipeline, and
the cached values are exact integer multiplicities.
"""

import math

from fliess.errors import NonFiniteError

BACKEND = "python"

_EPS = 1e-15

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
    |coefficient| <= 1e-15 entries dropped.  Raises NonFiniteError when
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
                acc = out.get(w, 0.0) + prod * mult
                out[w] = acc
    kept = {}
    for w, c in out.items():
        if abs(c) > _EPS:
            kept[w] = c
        elif c != c:
            raise NonFiniteError(f"coefficient of word {w} is nan in a shuffle product")
    if kept and max(map(abs, kept.values())) == math.inf:
        raise NonFiniteError("coefficient overflowed to inf in a shuffle product")
    return kept


def clear_cache():
    _PAIR_CACHE.clear()


def cache_size():
    return len(_PAIR_CACHE)
