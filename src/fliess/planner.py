"""Obstacle maps, RRT planning, shortcut smoothing, and spline sectioning.

The planning chain produces, from a 2D obstacle map, a time-indexed
cubic spline split into fixed-duration sections.  Each section stores
its cubic coefficients per output channel both as plain monomial
coefficients and in the series convention (coefficient of x0^k equals
k! times the monomial coefficient), plus the initial state of the
extended car model that matches the section's value and slope at its
start.  The vehicle is treated as a point.

Checking a long polyline (the simulated car path) against the map runs
a numpy broad phase first: a vectorised bounds test on every point, and
a box test that keeps, per obstacle, only the segments whose bounding
box meets the obstacle's padded box.  The box test is exact because
every predicate behind it requires box overlap (_segments_intersect
rejects box-disjoint pairs before its orientation test), so sending
only those few segments to the exact predicates gives the decision of
the segment-by-segment check.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from fliess.errors import MapFormatError, PlanningError, SplineFitError, decoding
from fliess.inversion import TaylorOutput
from fliess.vehicle import CarParams, SectionInit, solve_first_order_match

_FACTORIALS = (1.0, 1.0, 2.0, 6.0)

# Relative padding of an obstacle's box in the segment and polyline broad
# phases.  The predicates' rounded closest points and ray crossings stray
# outside the exact box by a few ulps of the largest coordinate; this is
# far above it.
_BOX_PAD = 1e-9


def _box_pad(scale, box):
    """Padding of an obstacle box for a path whose largest |coordinate| is scale."""
    return _BOX_PAD * (1.0 + max(scale, *map(abs, box)))


# ---------------------------------------------------------------------------
# geometry primitives


def _point_segment_distance(p, a, b):
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy))


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _within_bbox(a, b, p):
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1, p2, q1, q2):
    # Segments that meet share a box.  The exact comparisons reject pairs
    # that the rounded orientations below would call crossing: nearly
    # collinear segments lying apart along their common line.
    if (
        max(p1[0], p2[0]) < min(q1[0], q2[0])
        or max(q1[0], q2[0]) < min(p1[0], p2[0])
        or max(p1[1], p2[1]) < min(q1[1], q2[1])
        or max(q1[1], q2[1]) < min(p1[1], p2[1])
    ):
        return False
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    ):
        return True
    if d1 == 0 and _within_bbox(q1, q2, p1):
        return True
    if d2 == 0 and _within_bbox(q1, q2, p2):
        return True
    if d3 == 0 and _within_bbox(p1, p2, q1):
        return True
    if d4 == 0 and _within_bbox(p1, p2, q2):
        return True
    return False


def _segment_segment_distance(p1, p2, q1, q2):
    if _segments_intersect(p1, p2, q1, q2):
        return 0.0
    return min(
        _point_segment_distance(p1, q1, q2),
        _point_segment_distance(p2, q1, q2),
        _point_segment_distance(q1, p1, p2),
        _point_segment_distance(q2, p1, p2),
    )


def _point_in_polygon(p, vertices):
    x, y = p
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xc:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# obstacle map


@dataclass(frozen=True)
class Circle:
    center: tuple
    radius: float

    def collides_point(self, p, margin=0.0):
        return math.hypot(p[0] - self.center[0], p[1] - self.center[1]) <= self.radius + margin

    def collides_segment(self, a, b, margin=0.0):
        return _point_segment_distance(self.center, a, b) <= self.radius + margin

    def box(self, margin=0.0):
        """(xmin, ymin, xmax, ymax) outside which nothing collides."""
        reach = self.radius + margin
        cx, cy = self.center
        return (cx - reach, cy - reach, cx + reach, cy + reach)

    def to_json_dict(self):
        return {"type": "circle", "center": list(self.center), "radius": self.radius}


@dataclass(frozen=True)
class Polygon:
    vertices: tuple

    def _edges(self):
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def collides_point(self, p, margin=0.0):
        if _point_in_polygon(p, self.vertices):
            return True
        if margin > 0.0:
            return any(_point_segment_distance(p, e1, e2) <= margin for e1, e2 in self._edges())
        return False

    def collides_segment(self, a, b, margin=0.0):
        # either endpoint buried inside covers the fully-contained case
        if self.collides_point(a, margin) or self.collides_point(b, margin):
            return True
        for e1, e2 in self._edges():
            if margin > 0.0:
                if _segment_segment_distance(a, b, e1, e2) <= margin:
                    return True
            elif _segments_intersect(a, b, e1, e2):
                return True
        return False

    @functools.cached_property
    def _bounds(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def box(self, margin=0.0):
        """(xmin, ymin, xmax, ymax) outside which nothing collides."""
        xmin, ymin, xmax, ymax = self._bounds
        return (xmin - margin, ymin - margin, xmax + margin, ymax + margin)

    def to_json_dict(self):
        return {"type": "polygon", "vertices": [list(v) for v in self.vertices]}


@dataclass(frozen=True)
class ObstacleMap:
    """Axis-aligned world rectangle with circle and polygon obstacles."""

    bounds: tuple  # (xmin, ymin, xmax, ymax)
    obstacles: tuple
    start: tuple
    goal: tuple

    def __init__(self, bounds, obstacles, start, goal):
        bounds = tuple(float(v) for v in bounds)
        if len(bounds) != 4 or bounds[0] >= bounds[2] or bounds[1] >= bounds[3]:
            raise MapFormatError(f"degenerate bounds {bounds}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "obstacles", tuple(obstacles))
        object.__setattr__(self, "start", (float(start[0]), float(start[1])))
        object.__setattr__(self, "goal", (float(goal[0]), float(goal[1])))

    def in_bounds(self, p, margin=0.0):
        xmin, ymin, xmax, ymax = self.bounds
        return (
            xmin + margin <= p[0] <= xmax - margin
            and ymin + margin <= p[1] <= ymax - margin
        )

    def point_free(self, p, margin=0.0):
        if not self.in_bounds(p, margin):
            return False
        return not any(ob.collides_point(p, margin) for ob in self.obstacles)

    def segment_free(self, a, b, margin=0.0):
        """True when the segment stays in bounds and touches no obstacle.

        An obstacle reaches the exact collides_segment only when the
        segment's box meets its box padded as in polyline_free; a
        comparison with NaN proves nothing, so it keeps the obstacle.
        """
        if not (self.in_bounds(a, margin) and self.in_bounds(b, margin)):
            return False
        lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
        lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
        scale = max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
        for ob in self.obstacles:
            box = ob.box(margin)
            pad = _box_pad(scale, box)
            if (
                hi_x < box[0] - pad
                or hi_y < box[1] - pad
                or lo_x > box[2] + pad
                or lo_y > box[3] + pad
            ):
                continue
            if ob.collides_segment(a, b, margin):
                return False
        return True

    def polyline_free(self, points, margin=0.0):
        """True when every segment of the polyline is segment_free.

        Every point gets the in_bounds comparisons at once.  Then, per
        obstacle, a segment reaches the exact collides_segment only when
        its bounding box meets the obstacle's box padded by _BOX_PAD
        times the largest coordinate in play.  A pair is dropped only
        when a comparison proves the boxes apart, so NaN boxes keep
        every segment.
        """
        if len(points) < 2:
            return True
        pts = np.asarray(points, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        xmin, ymin, xmax, ymax = self.bounds
        inside = (
            (xmin + margin <= x) & (x <= xmax - margin) & (ymin + margin <= y) & (y <= ymax - margin)
        )
        if not inside.all():
            return False
        a, b = pts[:-1], pts[1:]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        scale = float(np.abs(pts).max())
        for ob in self.obstacles:
            box = ob.box(margin)
            pad = _box_pad(scale, box)
            near = ~(
                (hi[:, 0] < box[0] - pad)
                | (hi[:, 1] < box[1] - pad)
                | (lo[:, 0] > box[2] + pad)
                | (lo[:, 1] > box[3] + pad)
            )
            for i in np.flatnonzero(near):
                if ob.collides_segment(tuple(a[i].tolist()), tuple(b[i].tolist()), margin):
                    return False
        return True

    def validate(self, margin=0.0):
        if not self.point_free(self.start, margin):
            raise PlanningError(f"start {self.start} is not in free space")
        if not self.point_free(self.goal, margin):
            raise PlanningError(f"goal {self.goal} is not in free space")
        return self

    def to_json_dict(self):
        return {
            "bounds": list(self.bounds),
            "obstacles": [ob.to_json_dict() for ob in self.obstacles],
            "start": list(self.start),
            "goal": list(self.goal),
        }

    @classmethod
    def from_json_dict(cls, obj):
        with decoding("map", obj):
            obstacles = []
            for entry in obj.get("obstacles", []):
                kind = entry["type"]
                if kind == "circle":
                    obstacles.append(Circle(_point(entry["center"]), float(entry["radius"])))
                elif kind == "polygon":
                    vertices = tuple(_point(vert) for vert in entry["vertices"])
                    if len(vertices) < 3:
                        raise MapFormatError(f"polygon needs >= 3 vertices, got {len(vertices)}")
                    obstacles.append(Polygon(vertices))
                else:
                    raise MapFormatError(f"unknown obstacle type {kind!r}")
            return cls(obj["bounds"], obstacles, _point(obj["start"]), _point(obj["goal"]))


def _point(values):
    point = tuple(float(v) for v in values)
    if len(point) != 2:
        raise MapFormatError(f"a point needs two coordinates, got {len(point)}")
    return point


def load_map(path):
    with open(path) as fh:
        return ObstacleMap.from_json_dict(json.load(fh))


def save_map(obstacle_map, path):
    with open(path, "w") as fh:
        json.dump(obstacle_map.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def bundled_map():
    """The demo course shipped with the package."""
    text = resources.files("fliess").joinpath("data/demo_map.json").read_text()
    return ObstacleMap.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# RRT


@dataclass(frozen=True)
class RrtTree:
    """Nodes with parent links; node 0 is the start, goal_index the arrival node."""

    nodes: tuple
    parents: tuple
    goal_index: int


def rrt_plan(
    obstacle_map,
    step=0.75,
    goal_bias=0.1,
    max_iters=8000,
    seed=0,
    margin=0.0,
):
    """Goal-biased RRT over the map; deterministic for a fixed seed.

    Samples uniformly in bounds (or the goal with probability
    goal_bias), extends the nearest node by at most step with a
    collision-checked segment, and finishes when the goal is reachable
    within step of a new node.  Raises PlanningError when max_iters
    extensions never reach the goal, and up front for a step that is
    not positive and finite, a goal bias outside [0, 1], a negative
    max_iters or seed, or a bad margin.
    """
    if not 0.0 < step < math.inf:
        raise PlanningError(f"RRT step must be positive and finite, got {step}")
    if not 0.0 <= goal_bias <= 1.0:
        raise PlanningError(f"goal bias must lie in [0, 1], got {goal_bias}")
    if max_iters < 0:
        raise PlanningError(f"max iterations must be non-negative, got {max_iters}")
    _check_seed(seed)
    _check_margin(margin)
    obstacle_map.validate(margin)
    rng = np.random.default_rng(seed)
    xmin, ymin, xmax, ymax = obstacle_map.bounds
    goal = obstacle_map.goal

    cap = max_iters + 2
    pts = np.empty((cap, 2))
    pts[0] = obstacle_map.start
    count = 1
    parents = [-1]

    for _ in range(max_iters):
        if rng.random() < goal_bias:
            sample = goal
        else:
            sample = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        d2 = np.square(pts[:count, 0] - sample[0]) + np.square(pts[:count, 1] - sample[1])
        near_idx = int(np.argmin(d2))
        near = (pts[near_idx, 0], pts[near_idx, 1])
        dist = math.sqrt(d2[near_idx])
        if dist < 1e-12:
            continue
        if dist <= step:
            new = (float(sample[0]), float(sample[1]))
        else:
            s = step / dist
            new = (near[0] + s * (sample[0] - near[0]), near[1] + s * (sample[1] - near[1]))
        if not obstacle_map.segment_free(near, new, margin):
            continue
        pts[count] = new
        parents.append(near_idx)
        count += 1
        if math.hypot(new[0] - goal[0], new[1] - goal[1]) <= step and obstacle_map.segment_free(
            new, goal, margin
        ):
            pts[count] = goal
            parents.append(count - 1)
            count += 1
            nodes = tuple((float(x), float(y)) for x, y in pts[:count])
            return RrtTree(nodes=nodes, parents=tuple(parents), goal_index=count - 1)
    raise PlanningError(f"no path found within {max_iters} iterations")


def extract_path(tree):
    """Walk parent links from the arrival node back to the root."""
    if tree.goal_index is None or tree.goal_index < 0:
        raise PlanningError("tree never reached the goal")
    path = []
    idx = tree.goal_index
    while idx >= 0:
        path.append(tree.nodes[idx])
        idx = tree.parents[idx]
    path.reverse()
    return path


def _check_margin(margin):
    if not 0.0 <= margin < math.inf:
        raise PlanningError(f"margin must be non-negative and finite, got {margin}")


def _check_seed(seed):
    if seed < 0:
        raise PlanningError(f"seed must be non-negative, got {seed}")


def smooth_path(path, obstacle_map, seed=0, passes=200, margin=0.0):
    """Seeded shortcut smoothing; endpoints are preserved.

    Each pass picks two non-adjacent waypoints and splices them with a
    straight segment when that segment is collision-free, so the
    result stays collision-free by construction.  Raises PlanningError
    up front for a negative seed or pass count, or a bad margin.
    """
    if passes < 0:
        raise PlanningError(f"smoothing passes must be non-negative, got {passes}")
    _check_seed(seed)
    _check_margin(margin)
    pts = [tuple(p) for p in path]
    if len(pts) < 3:
        return pts
    rng = np.random.default_rng(seed)
    for _ in range(passes):
        if len(pts) < 3:
            break
        i = int(rng.integers(0, len(pts) - 2))
        j = int(rng.integers(i + 2, len(pts)))
        if obstacle_map.segment_free(pts[i], pts[j], margin):
            pts = pts[: i + 1] + pts[j:]
    return pts


# ---------------------------------------------------------------------------
# spline sectioning


@dataclass(frozen=True)
class SplineSection:
    """One cubic piece: value rows are monomial coefficients per output."""

    duration: float
    poly: tuple  # ((a0..a3) for y1, (a0..a3) for y2)
    init: SectionInit

    def value(self, t):
        return np.array([np.polynomial.polynomial.polyval(t, row) for row in self.poly])

    def derivative(self, t):
        return np.array(
            [np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(row)) for row in self.poly]
        )

    def series_rows(self):
        """Cubic coefficients in series convention: k! times monomial."""
        return tuple(
            tuple(f * a for f, a in zip(_FACTORIALS, row)) for row in self.poly
        )

    def taylor_output(self, constants=None):
        """Reference output expansion; constants may be re-anchored."""
        rows = [list(r) for r in self.series_rows()]
        if constants is not None:
            for row, c0 in zip(rows, constants):
                row[0] = float(c0)
        return TaylorOutput(rows)

    def to_json_dict(self):
        return {
            "duration": self.duration,
            "poly": [list(row) for row in self.poly],
            "series": [list(row) for row in self.series_rows()],
            "init": self.init.to_json_dict(),
        }


@dataclass(frozen=True)
class PathSpline:
    sections: tuple

    @property
    def n_sections(self):
        return len(self.sections)

    @property
    def total_time(self):
        return sum(s.duration for s in self.sections)

    def locate(self, t):
        """Section index and local time for global time t."""
        acc = 0.0
        for i, s in enumerate(self.sections):
            if t <= acc + s.duration or i == len(self.sections) - 1:
                return i, min(max(t - acc, 0.0), s.duration)
            acc += s.duration
        raise ValueError("empty spline")

    def value(self, t):
        """Value at time t, shape (2,); shape (len(t), 2) for an array of times.

        An array takes the sections and local times locate would give,
        from the same comparisons and float operations, and one
        polyval per section.
        """
        if np.ndim(t) == 0:
            i, local = self.locate(t)
            return self.sections[i].value(local)
        t = np.asarray(t, dtype=float)
        durations = np.array([s.duration for s in self.sections])
        ends = np.fromiter(itertools.accumulate(durations.tolist()), float, len(durations))
        hit = t[:, None] <= ends
        idx = np.where(hit.any(axis=1), hit.argmax(axis=1), len(ends) - 1)
        starts = np.concatenate([[0.0], ends[:-1]])
        local = t - starts[idx]
        local = np.where(0.0 > local, 0.0, local)  # max(local, 0.0)
        local = np.where(durations[idx] < local, durations[idx], local)  # min(local, duration)
        out = np.empty((len(t), 2))
        for i, section in enumerate(self.sections):
            sel = idx == i
            if sel.any():
                out[sel] = section.value(local[sel]).T
        return out

    def derivative(self, t):
        i, local = self.locate(t)
        return self.sections[i].derivative(local)

    def endpoint(self):
        last = self.sections[-1]
        return last.value(last.duration)

    def sample(self, per_section=20):
        """Dense polyline over the whole spline (for plots and checks)."""
        pts = []
        for i, s in enumerate(self.sections):
            ts = np.linspace(0.0, s.duration, per_section + 1)
            pts.extend(zip(*s.value(ts[1:] if i > 0 else ts)))
        return pts

    def to_json_dict(self):
        return {"total_time": self.total_time, "sections": [s.to_json_dict() for s in self.sections]}

    @classmethod
    def from_json_dict(cls, obj):
        with decoding("spline", obj):
            sections = []
            for entry in obj["sections"]:
                key = "poly" if "poly" in entry else "series"
                rows = [[float(v) for v in row] for row in entry[key]]
                if [len(row) for row in rows] != [4, 4]:
                    raise MapFormatError(f"section {key} must be two rows of four numbers")
                if key == "series":
                    rows = [[v / f for f, v in zip(_FACTORIALS, row)] for row in rows]
                poly = tuple(tuple(row) for row in rows)
                init = SectionInit(**{k: float(v) for k, v in entry["init"].items()})
                sections.append(SplineSection(float(entry["duration"]), poly, init))
            if not sections:
                raise MapFormatError("spline document has no sections")
            return cls(tuple(sections))


def load_spline(path):
    with open(path) as fh:
        return PathSpline.from_json_dict(json.load(fh))


def _resample_arclength(path, n_samples):
    pts = np.asarray(path, dtype=float)
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total <= 0.0:
        raise SplineFitError("path has zero length")
    grid = np.linspace(0.0, total, n_samples)
    x = np.interp(grid, s, pts[:, 0])
    y = np.interp(grid, s, pts[:, 1])
    return np.column_stack([x, y])


def fit_spline(
    path,
    sections,
    total_time=1.0,
    samples_per_section=12,
    initial_heading=None,
    branch="auto",
    params=CarParams(),
):
    """Sequential constrained least-squares cubic fit over path points.

    The path is resampled uniformly in arc length, split into equal
    time sections, and fitted one cubic per section per output.  Each
    section's value and slope at t=0 are pinned to the previous
    section's endpoint (C1 continuity is exact); the first section
    pins only its start value.  Free coefficients minimize the
    least-squares residual on the resampled points plus a weighted
    end-slope target taken from the polyline, which keeps the pinned
    slopes from drifting as sections chain.  Each section also
    solves for the extended-model initial state that reproduces its
    value and slope: z3 comes from the spline tangent (the first
    section honors initial_heading when given).
    """
    if len(path) < 2:
        raise SplineFitError("need at least two path points")
    if sections < 1:
        raise SplineFitError("need at least one section")
    if not 0.0 < total_time < math.inf:
        raise SplineFitError("total time must be positive and finite")
    if samples_per_section < 1:
        raise SplineFitError("need at least one fit sample per section")
    if initial_heading is not None and not math.isfinite(initial_heading):
        raise SplineFitError(f"initial heading must be finite, got {initial_heading}")
    duration = total_time / sections
    n_samples = sections * samples_per_section + 1
    resampled = _resample_arclength(path, n_samples)

    built = []
    prev_value = resampled[0]
    prev_slope = None
    dt = duration / samples_per_section
    t = np.linspace(0.0, duration, samples_per_section + 1)
    # weighted end-slope data row: pinning only the start slope would let
    # slope error grow by ~1.3x per section, so each fit also targets the
    # polyline slope over the section's last sample interval
    w_end = 10.0 * duration * math.sqrt(samples_per_section + 1.0)
    # a total time whose powers overflow or underflow, or whose values
    # overflow in the solve, fails here with one message: numpy raises
    # instead of warning, and LAPACK never sees a non-finite entry
    out_of_range = f"total time {total_time:g} is outside the range the fit can scale"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            scale = np.array([duration, duration**2, duration**3])
            if not (np.isfinite(scale).all() and scale.all()):
                raise SplineFitError(out_of_range)
            # scaled columns of a1, a2, a3; a section solves for those it does not pin
            design = np.vstack(
                [
                    np.column_stack([t, t * t, t**3]),
                    [w_end, w_end * 2.0 * duration, w_end * 3.0 * duration * duration],
                ]
            ) / scale
            if not np.isfinite(design).all():
                raise SplineFitError(out_of_range)
            for j in range(sections):
                rows = slice(j * samples_per_section, (j + 1) * samples_per_section + 1)
                pts = resampled[rows]
                pinned = 1 if prev_slope is None else 2  # a0, and a1 after the first section
                poly_rows = []
                for ch in range(2):
                    target = pts[:, ch]
                    end_slope = (pts[-1, ch] - pts[-2, ch]) / dt
                    a0 = float(prev_value[ch])
                    a1 = 0.0 if prev_slope is None else float(prev_slope[ch])
                    rhs = np.concatenate([target - a0 - a1 * t, [w_end * (end_slope - a1)]])
                    sol, *_ = np.linalg.lstsq(design[:, pinned - 1 :], rhs, rcond=None)
                    free = tuple(float(a) for a in sol / scale[pinned - 1 :])
                    poly_rows.append((a0, a1)[:pinned] + free)

                slope0 = (poly_rows[0][1], poly_rows[1][1])
                if j == 0 and initial_heading is not None:
                    z3 = float(initial_heading)
                else:
                    z3 = math.atan2(slope0[1], slope0[0])
                z4, z5 = solve_first_order_match(slope0, z3, branch=branch, params=params)
                init = SectionInit(
                    z1=poly_rows[0][0], z2=poly_rows[1][0], z3=z3, z4=z4, z5=z5
                ).validate(params)
                section = SplineSection(duration=duration, poly=tuple(poly_rows), init=init)
                built.append(section)
                prev_value = section.value(duration)
                prev_slope = section.derivative(duration)
    except (FloatingPointError, OverflowError, np.linalg.LinAlgError):
        raise SplineFitError(out_of_range) from None
    return PathSpline(tuple(built))
