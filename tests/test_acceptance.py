"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints exactly one
``[criterion N] PASS/FAIL: ...`` line on the real stdout (capture is
suspended around the print), so a plain ``pytest`` run shows the
verdicts inline.  The slow full-pipeline runs are cached in ``_RUNS``
so the determinism check and the degree sweep share work.
"""

import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from fliess.composition import DeltaSeries, compose, group_inverse
from fliess.inversion import TaylorOutput, left_invert, tracking_error_series
from fliess.pipeline import PipelineConfig, run_pipeline
from fliess.planner import bundled_map
from fliess.realization import Realization, fliess_eval, generating_series, rk4_simulate
from fliess.series import Series, VectorSeries, shuffle, shuffle_inverse
from fliess import symexpr as se
from fliess.vehicle import (
    SectionInit,
    augmented_realization,
    car_realization,
    solve_first_order_match,
)


def _report(capfd, n, passed, detail):
    line = f"[criterion {n}] {'PASS' if passed else 'FAIL'}: {detail}"
    with capfd.disabled():
        print(line, file=sys.stdout, flush=True)


def criterion(n):
    """Print the verdict line even when the body raises, then assert."""

    def deco(fn):
        def wrapper(capfd):
            try:
                passed, detail = fn()
            except Exception as exc:
                _report(capfd, n, False, f"error: {exc!r}")
                raise
            _report(capfd, n, passed, detail)
            assert passed, f"criterion {n}: {detail}"

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return deco


# ---------------------------------------------------------------------------
# criterion 1: shuffle product vs brute-force interleaving


def _interleavings(a, b):
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for rest in _interleavings(a[1:], b):
        yield (a[0],) + rest
    for rest in _interleavings(a, b[1:]):
        yield (b[0],) + rest


def _brute_counts(a, b):
    out = {}
    for w in _interleavings(a, b):
        out[w] = out.get(w, 0.0) + 1.0
    return out


@criterion(1)
def test_shuffle_matches_brute_force_on_all_short_words():
    t0 = time.monotonic()
    letters = (0, 1, 2)
    words = [()]
    by_len = {0: [()]}
    for k in range(1, 7):
        by_len[k] = [w + (a,) for w in by_len[k - 1] for a in letters]
        words.extend(by_len[k])
    pairs = 0
    for eta in words:
        for xi in words:
            if len(eta) + len(xi) > 6:
                continue
            lib = shuffle(Series(3, 6, {eta: 1.0}), Series(3, 6, {xi: 1.0}), 6)
            if lib.terms_dict() != _brute_counts(eta, xi):
                return False, f"mismatch at eta={eta} xi={xi}"
            pairs += 1
    dt = time.monotonic() - t0
    return pairs == 7108 and dt < 10.0, (
        f"{pairs} word pairs match exactly in {dt:.1f}s (limit 10s)"
    )


# ---------------------------------------------------------------------------
# criterion 2: shuffle and composition group inverses


@criterion(2)
def test_group_inverses_invert_to_degree_six():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        # scalar with a safely nonzero constant term for the shuffle group
        const = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        terms = {(): const}
        for _ in range(10):
            k = int(rng.integers(1, 7))
            w = tuple(int(x) for x in rng.integers(0, 3, size=k))
            terms[w] = float(rng.uniform(-1.0, 1.0))
        c = Series(3, 6, terms)
        resid = shuffle(c, shuffle_inverse(c, 6), 6) - Series.unit(3, 6)
        worst = max(worst, resid.max_abs_coeff())

        # two-input vector for the composition group
        comps = []
        for _ in range(2):
            vt = {}
            for _ in range(8):
                k = int(rng.integers(0, 7))
                w = tuple(int(x) for x in rng.integers(0, 3, size=k))
                vt[w] = float(rng.uniform(-1.0, 1.0))
            comps.append(Series(3, 6, vt))
        v = VectorSeries(comps)
        rt = DeltaSeries(v).compose(DeltaSeries(group_inverse(v, 6)), 6)
        worst = max(worst, max(s.max_abs_coeff() for s in rt.base))
    return worst < 1e-9, f"max identity residual {worst:.2e} over 100 draws (tol 1e-9)"


# ---------------------------------------------------------------------------
# criterion 3: functional laws for shuffle and composition


@criterion(3)
def test_shuffle_and_composition_match_operator_algebra():
    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 0.5, 2000)

    def rand_scalar(letters, scale):
        terms = {}
        for _ in range(8):
            k = int(rng.integers(0, 5))
            w = tuple(int(x) for x in rng.integers(0, letters, size=k))
            terms[w] = float(rng.uniform(-scale, scale))
        return Series(letters, 4, terms)

    u2 = np.vstack([1.0 - grid + 0.5 * grid**2, 0.5 + grid])
    u1 = (0.8 - 0.6 * grid + grid**2)[None, :]

    sup_sh = 0.0
    sup_co = 0.0
    for _ in range(5):
        c = rand_scalar(3, 0.4)
        d = rand_scalar(3, 0.4)
        lhs = fliess_eval(shuffle(c, d, 8), u2, grid)
        rhs = fliess_eval(c, u2, grid) * fliess_eval(d, u2, grid)
        sup_sh = max(sup_sh, float(np.max(np.abs(lhs - rhs))))

        cv = rand_scalar(3, 0.4)
        dv = VectorSeries([rand_scalar(2, 0.4), rand_scalar(2, 0.4)])
        lhs = fliess_eval(compose(cv, dv, 10), u1, grid)
        inner = fliess_eval(dv, u1, grid)  # (npts, 2)
        rhs = fliess_eval(cv, inner.T, grid)
        sup_co = max(sup_co, float(np.max(np.abs(lhs - rhs))))
    ok = sup_sh < 1e-3 and sup_co < 1e-3
    return ok, (
        f"sup shuffle-law error {sup_sh:.2e}, sup composition-law error "
        f"{sup_co:.2e} on [0, 0.5] (tol 1e-3)"
    )


# ---------------------------------------------------------------------------
# criterion 4: series prediction vs integration for the kinematic car


@criterion(4)
def test_car_series_tracks_integrator_then_diverges():
    t0 = time.monotonic()
    real = car_realization((0.0, 0.0, 0.0, 0.2))
    c = generating_series(real, 8)

    horizon, steps = 0.25, 2000
    grid = np.linspace(0.0, horizon, steps + 1)
    u_arr = np.vstack([np.full_like(grid, 1.5), np.full_like(grid, 0.8)])
    y_series = fliess_eval(c, u_arr, grid)
    traj = rk4_simulate(real, TaylorOutput([[1.5], [0.8]]), horizon, steps)
    sup = float(np.max(np.abs(y_series - traj.outputs)))

    # beyond the horizon the truncation error must keep growing
    grid2 = np.linspace(0.0, 0.5, 2 * steps + 1)
    u2 = np.vstack([np.full_like(grid2, 1.5), np.full_like(grid2, 0.8)])
    y2 = fliess_eval(c, u2, grid2)
    traj2 = rk4_simulate(real, TaylorOutput([[1.5], [0.8]]), 0.5, 2 * steps)
    err = np.max(np.abs(y2 - traj2.outputs), axis=1)
    idx = [steps + 400 * j for j in range(6)]  # t = 0.25, 0.30, ..., 0.50
    growing = all(err[idx[j + 1]] > err[idx[j]] for j in range(5))
    dt = time.monotonic() - t0
    ok = sup < 5e-2 and growing and dt < 60.0
    tail = ", ".join(f"{err[i]:.1e}" for i in idx)
    return ok, (
        f"sup |series - RK4| = {sup:.2e} on [0, 0.25] (tol 5e-2); "
        f"error at t=0.25..0.50: {tail} (monotone: {growing}); {dt:.1f}s (limit 60s)"
    )


# ---------------------------------------------------------------------------
# criterion 5: exact inversion of the double integrator


def _double_integrator(z10, z20):
    fields = [[se.var(1), se.ZERO], [se.ZERO, se.ONE]]
    return Realization(fields, [se.var(0)], (z10, z20))


@criterion(5)
def test_double_integrator_recovers_acceleration():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        z10, z20, y2, y3 = (float(v) for v in rng.uniform(-2.0, 2.0, size=4))
        c = generating_series(_double_integrator(z10, z20), 6)
        cy = TaylorOutput([[z10, z20, y2, y3]])
        u = left_invert(c, cy, 4)
        want = np.array([y2, y3, 0.0, 0.0, 0.0])
        worst = max(worst, float(np.max(np.abs(np.asarray(u.coeffs[0]) - want))))
    return worst < 1e-10, (
        f"max coefficient error {worst:.2e} over 100 random cubics (tol 1e-10)"
    )


# ---------------------------------------------------------------------------
# criterion 6: car output tracking round trip and reference section


@criterion(6)
def test_car_section_round_trip_and_reference_values():
    # part 1: synthesize inputs for a cubic reference and check the
    # closed-loop output series reproduces it through degree 6
    z30 = 1.5
    z40, z50 = solve_first_order_match((10.75, 14.40), z30)
    init = SectionInit(-1.5, 9.5, z30, z40, z50)
    c = generating_series(augmented_realization(init), 8)
    cy = TaylorOutput([
        [-1.5, 10.75, -28.15, 185.15],
        [9.5, 14.40, 13.07, -24.89],
    ])
    cu = left_invert(c, cy, 6)
    err = tracking_error_series(c, cu, cy, 8)
    rel = 0.0
    for i in range(2):
        scale = max(1.0, max(abs(v) for v in cy.coeffs[i]))
        rel = max(rel, float(np.max(np.abs(err[i, :7]))) / scale)

    # part 2: same section with the steering state on the other sheet
    # (angle not reduced mod 2*pi), matching the tabulated input values
    z40b, z50b = -4.00028, -17.97
    initb = SectionInit(9.5, -1.5, z30, z40b, z50b)
    cb = generating_series(augmented_realization(initb), 8)
    cyb = TaylorOutput([
        [9.5, z50b * math.cos(z30 + z40b), 13.07, -24.89],
        [-1.5, z50b * math.sin(z30 + z40b), -28.15, 185.15],
    ])
    cub = left_invert(cb, cyb, 6)
    u10 = cub.coeffs[0][0]
    u20 = cub.coeffs[1][0]
    ok = (
        rel < 1e-6
        and abs(u10 - 7.74) <= 0.02 * 7.74
        and abs(u20 - 6.36) <= 0.02 * 6.36
    )
    return ok, (
        f"round-trip relative error {rel:.1e} through degree 6 (tol 1e-6); "
        f"initial inputs ({u10:.4f}, {u20:.4f}) vs (7.74, 6.36) within 2%"
    )


# ---------------------------------------------------------------------------
# criterion 7: first-order matching solver


@criterion(7)
def test_first_order_match_round_trip_and_reference_speed():
    rng = np.random.default_rng(77)
    worst = 0.0
    n = 0
    while n < 1000:
        v = rng.uniform(-5.0, 5.0, size=2)
        if math.hypot(v[0], v[1]) < 0.1:
            continue
        z3 = float(rng.uniform(-math.pi, math.pi))
        z4, z5 = solve_first_order_match((float(v[0]), float(v[1])), z3)
        worst = max(
            worst,
            abs(z5 * math.cos(z3 + z4) - v[0]),
            abs(z5 * math.sin(z3 + z4) - v[1]),
        )
        n += 1
    z4r, z5r = solve_first_order_match((14.40, 10.75), 1.5, branch="positive")
    dev = abs(abs(z5r) - 17.97)
    ok = worst < 1e-9 and dev < 0.01
    return ok, (
        f"max residual {worst:.2e} over 1000 targets (tol 1e-9); "
        f"reference |z5| = {abs(z5r):.4f} vs 17.97 (dev {dev:.1e}, tol 0.01)"
    )


# ---------------------------------------------------------------------------
# criteria 8 and 9: full pipeline on the bundled map


_RUNS = {}


def _bundle_run(inversion_degree, outdir=None):
    rep = _RUNS.get(inversion_degree)
    if rep is None or outdir is not None:
        cfg = PipelineConfig(inversion_degree=inversion_degree)
        rep = run_pipeline(bundled_map(), cfg, outdir=outdir)
        _RUNS[inversion_degree] = rep
    return rep


@criterion(8)
def test_pipeline_is_safe_accurate_and_deterministic():
    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        t0 = time.monotonic()
        rep = _bundle_run(6, outdir=d1)
        wall = time.monotonic() - t0
        _bundle_run(6, outdir=d2)
        same = Path(d1, "report.json").read_bytes() == Path(d2, "report.json").read_bytes()
    ok = (
        rep.collision_free
        and rep.arrived
        and rep.goal_distance <= 0.2
        and rep.max_section_rms < 0.1
        and wall < 300.0
        and same
    )
    return ok, (
        f"collision-free: {rep.collision_free}, goal distance {rep.goal_distance:.1e} "
        f"(tol 0.2), max section rms {rep.max_section_rms:.1e} (tol 0.1), "
        f"{wall:.0f}s (limit 300s), repeat run identical: {same}"
    )


@criterion(9)
def test_tracking_error_does_not_increase_with_inversion_degree():
    rms = []
    for deg in (3, 4, 5, 6):
        rep = _bundle_run(deg)
        rms.append(math.sqrt(np.mean([s.rms_tracking**2 for s in rep.sections])))
    ok = all(rms[j + 1] <= rms[j] for j in range(3))
    vals = ", ".join(f"{v:.2e}" for v in rms)
    return ok, f"aggregate tracking rms by degree 3..6: {vals} (non-increasing: {ok})"
