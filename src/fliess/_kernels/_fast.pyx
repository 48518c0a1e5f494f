# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernels for the hot word-algebra loops.

Twin of fliess._kernels._pure; see that module for the contract.
The algorithm and iteration order are identical so both backends
produce bit-identical floats.
"""

import math

from fliess.errors import NonFiniteError

BACKEND = "cython"

cdef double _EPS = 1e-15

cdef dict _PAIR_CACHE = {}


cdef dict _shuffle_words(tuple u, tuple v):
    cdef dict out, hit
    cdef tuple key, w, aw, bw, a, b
    cdef object mult
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


def shuffle_terms(dict a, dict b, int max_degree):
    """Shuffle product of two sparse coefficient maps, truncated."""
    cdef dict out = {}
    cdef dict kept = {}
    cdef tuple ua, ub, w
    cdef double ca, cb, prod, acc, c
    cdef int la
    cdef object mult
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
