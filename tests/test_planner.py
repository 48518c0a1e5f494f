import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliess.errors import MapFormatError, PlanningError, SplineFitError
from fliess.pipeline import PipelineConfig, run_pipeline
from fliess.planner import (
    Circle,
    ObstacleMap,
    PathSpline,
    Polygon,
    RrtTree,
    bundled_map,
    extract_path,
    fit_spline,
    load_map,
    load_spline,
    rrt_plan,
    save_map,
    smooth_and_spline,
    smooth_path,
    _point_segment_distance,
    _segment_segment_distance,
    _segments_intersect,
)
from fliess.svgplot import SvgCanvas, draw_map


def empty_map(start=(1.0, 1.0), goal=(9.0, 9.0)):
    return ObstacleMap(bounds=(0, 0, 10, 10), obstacles=(), start=start, goal=goal)


def literal_segment_free(obstacle_map, a, b, margin=0.0):
    """Reference: both ends in bounds, and the exact predicate of every obstacle."""
    if not (obstacle_map.in_bounds(a, margin) and obstacle_map.in_bounds(b, margin)):
        return False
    return not any(ob.collides_segment(a, b, margin) for ob in obstacle_map.obstacles)


def literal_polyline_free(obstacle_map, points, margin=0.0):
    """Reference: every segment through the exact predicates, one by one."""
    return all(
        literal_segment_free(obstacle_map, points[i], points[i + 1], margin)
        for i in range(len(points) - 1)
    )


def walled_goal_map():
    # goal sits free inside a closed box no segment can enter
    walls = (
        Polygon(((4, 4), (6, 4), (6, 4.2), (4, 4.2))),
        Polygon(((4, 5.8), (6, 5.8), (6, 6), (4, 6))),
        Polygon(((4, 4), (4.2, 4), (4.2, 6), (4, 6))),
        Polygon(((5.8, 4), (6, 4), (6, 6), (5.8, 6))),
    )
    return ObstacleMap(bounds=(0, 0, 10, 10), obstacles=walls, start=(1, 1), goal=(5, 5))


class TestGeometry:
    def test_point_segment_distance_oracle(self, rng):
        for _ in range(50):
            p, a, b = rng.uniform(-2, 2, size=(3, 2))
            s = np.linspace(0.0, 1.0, 2001)[:, None]
            pts = a + s * (b - a)
            brute = np.min(np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1]))
            got = _point_segment_distance(p, a, b)
            assert got == pytest.approx(brute, abs=2e-3)
            assert got <= brute + 1e-12

    def test_degenerate_segment(self):
        assert _point_segment_distance((0, 3), (0, 0), (0, 0)) == pytest.approx(3.0)

    def test_segment_intersection_cases(self):
        assert _segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
        assert not _segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))
        # shared endpoint and collinear overlap both count as touching
        assert _segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))
        assert _segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))
        assert not _segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))


class TestObstacles:
    def test_circle(self):
        c = Circle((1.0, 1.0), 0.5)
        assert c.collides_point((1.2, 1.0))
        assert not c.collides_point((2.0, 1.0))
        assert c.collides_point((1.7, 1.0), margin=0.25)
        assert c.collides_segment((0, 0), (2, 2))
        assert not c.collides_segment((0, 2), (2, 4))
        assert c.collides_segment((0, 1.8), (2, 1.8), margin=0.4)

    def test_polygon_point(self):
        square = Polygon(((0, 0), (2, 0), (2, 2), (0, 2)))
        assert square.collides_point((1, 1))
        assert not square.collides_point((3, 1))
        assert square.collides_point((2.3, 1), margin=0.4)

    def test_polygon_segment(self):
        square = Polygon(((0, 0), (2, 0), (2, 2), (0, 2)))
        assert square.collides_segment((-1, 1), (3, 1))
        assert square.collides_segment((0.5, 0.5), (1.5, 1.5))  # fully inside
        assert not square.collides_segment((-1, 3), (3, 3))
        assert square.collides_segment((-1, 2.3), (3, 2.3), margin=0.4)


class TestObstacleMap:
    def test_bounds_and_freedom(self):
        m = ObstacleMap((0, 0, 10, 10), (Circle((5, 5), 1.0),), (1, 1), (9, 9))
        assert m.point_free((1, 1))
        assert not m.point_free((5, 5.5))
        assert not m.point_free((11, 5))
        assert not m.point_free((9.9, 5), margin=0.5)
        assert m.segment_free((1, 1), (1, 9))
        assert not m.segment_free((1, 5), (9, 5))
        assert m.polyline_free([(1, 1), (1, 9), (9, 9)])
        assert not m.polyline_free([(1, 1), (9, 9)])

    def test_validate(self):
        m = ObstacleMap((0, 0, 10, 10), (Circle((1, 1), 0.5),), (1, 1), (9, 9))
        with pytest.raises(PlanningError):
            m.validate()
        empty_map().validate()

    def test_degenerate_bounds(self):
        with pytest.raises(MapFormatError):
            ObstacleMap((0, 0, 0, 10), (), (0, 0), (1, 1))

    def test_json_round_trip(self, tmp_path):
        m = ObstacleMap(
            (0, 0, 10, 10),
            (Circle((5, 5), 1.0), Polygon(((1, 1), (2, 1), (2, 2)))),
            (0.5, 0.5),
            (9, 9),
        )
        path = tmp_path / "map.json"
        save_map(m, path)
        m2 = load_map(path)
        assert m2.bounds == m.bounds
        assert m2.start == m.start and m2.goal == m.goal
        assert len(m2.obstacles) == 2
        assert isinstance(m2.obstacles[0], Circle)
        assert m2.obstacles[1].vertices == m.obstacles[1].vertices

    def test_malformed_documents(self):
        with pytest.raises(MapFormatError):
            ObstacleMap.from_json_dict({"bounds": [0, 0, 1, 1]})
        with pytest.raises(MapFormatError):
            ObstacleMap.from_json_dict(
                {
                    "bounds": [0, 0, 1, 1],
                    "obstacles": [{"type": "blob"}],
                    "start": [0, 0],
                    "goal": [1, 1],
                }
            )
        with pytest.raises(MapFormatError):
            ObstacleMap.from_json_dict(
                {
                    "bounds": [0, 0, 1, 1],
                    "obstacles": [{"type": "polygon", "vertices": [[0, 0], [1, 0]]}],
                    "start": [0, 0],
                    "goal": [1, 1],
                }
            )

    def test_bundled_map(self):
        m = bundled_map()
        m.validate()
        assert len(m.obstacles) == 6


# Two collinear segments 0.2 apart along their line.  Their rounded
# orientations have random signs and pass as a proper crossing; only the
# box test in front of them tells the segments apart.
ROUNDED_CROSSING = (
    (1.125922989742822, -0.17016994768989996),
    (0.3460887880566501, -0.6686270304512366),
    (0.14165477152799721, -0.799297861860941),
    (0.050516650481237324, -0.8575518366764739),
)


def assert_agrees(obstacle_map, points, margin=0.0):
    got = obstacle_map.polyline_free(points, margin)
    assert got == literal_polyline_free(obstacle_map, points, margin)
    for a, b in zip(points, points[1:]):
        assert obstacle_map.segment_free(a, b, margin) == literal_segment_free(obstacle_map, a, b, margin)
    return got


@st.composite
def synthetic_maps(draw):
    coord = st.floats(-4.0, 4.0)
    circles = st.builds(Circle, st.tuples(coord, coord), st.floats(0.0, 2.0))
    polygons = st.builds(
        Polygon, st.lists(st.tuples(coord, coord), min_size=3, max_size=5).map(tuple)
    )
    obstacles = draw(st.lists(circles | polygons, max_size=4))
    return ObstacleMap((-5, -5, 5, 5), obstacles, (0, 0), (1, 1))


@st.composite
def maps_with_polylines(draw):
    """A map, a margin and a short polyline aimed at the broad phase's edges."""
    m = draw(st.just(bundled_map()) | synthetic_maps())
    margin = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 1.0))
    xmin, ymin, xmax, ymax = m.bounds
    edges = {xmin + margin, ymin + margin, xmax - margin, ymax - margin}
    edges.update(v for ob in m.obstacles for v in ob.box(margin))
    coord = (
        st.floats(-10.0, 14.0)
        | st.sampled_from(sorted(edges))
        | st.sampled_from([math.nan, math.inf, -math.inf, 100.0])
    )
    point = st.tuples(coord, coord)
    t = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(-2.0, 3.0)
    for ob in m.obstacles:
        if isinstance(ob, Circle):
            # tangent lines: one coordinate on the circle's reach
            (cx, cy), reach = ob.center, ob.radius + margin
            point |= st.builds(lambda s: (cx + s, cy + reach), t)
            point |= st.builds(lambda s: (cx - reach, cy + s), t)
        else:
            # points on the line of an edge, inside and beyond it
            for (x1, y1), (x2, y2) in ob._edges():
                point |= st.builds(lambda s: (x1 + s * (x2 - x1), y1 + s * (y2 - y1)), t)
    points = draw(st.lists(point, max_size=6))
    return m, points, margin


class TestPolylineBroadPhase:
    @settings(max_examples=400, deadline=None)
    @given(maps_with_polylines())
    def test_same_decision_as_segment_loop(self, case):
        m, points, margin = case
        assert_agrees(m, points, margin)

    def test_long_random_walks(self, rng):
        maps = [bundled_map(), empty_map(), walled_goal_map()]
        decisions = set()
        for m in maps:
            xmin, ymin, xmax, ymax = m.bounds
            for margin in (0.0, 0.3):
                for _ in range(60):
                    start = rng.uniform((xmin, ymin), (xmax, ymax))
                    walk = start + np.cumsum(rng.normal(scale=0.15, size=(80, 2)), axis=0)
                    points = [tuple(p) for p in walk]
                    decisions.add(assert_agrees(m, points, margin))
        assert decisions == {True, False}

    def test_degenerate_polylines(self):
        m = bundled_map()
        assert assert_agrees(m, [])
        assert assert_agrees(m, [(100.0, 100.0)])  # one point is no segment
        assert assert_agrees(m, [(0.0, 0.0), (0.0, 0.0)])
        assert not assert_agrees(m, [(0.0, 0.0), (math.nan, 0.0)])
        assert not assert_agrees(m, [(0.0, 0.0), (0.0, 12.5)])
        assert not assert_agrees(m, [(0.0, 0.0), (0.0, 11.8)], margin=0.3)

    def test_touching_cases(self):
        circle = Circle((0.0, 0.0), 1.0)
        square = Polygon(((2.0, -1.0), (3.0, -1.0), (3.0, 1.0), (2.0, 1.0)))
        m = ObstacleMap((-5, -5, 5, 5), (circle, square), (0, 3), (4, 3))
        assert not assert_agrees(m, [(-2.0, 1.0), (-1.0, 1.0), (1.0, 1.0)])  # tangent
        assert assert_agrees(m, [(-2.0, 1.0 + 1e-12), (1.0, 1.0 + 1e-12)])
        # collinear with an edge, touching its corner
        assert not assert_agrees(m, [(3.0, 2.0), (3.0, 4.0), (3.0, 1.0)])
        assert assert_agrees(m, [(3.0, 1.0 + 1e-12), (3.0, 4.0)])
        assert not assert_agrees(m, [(-3.0, 1.3), (3.0, 1.3)], margin=0.3)  # on the padded box edge
        assert assert_agrees(m, [(-3.0, 1.3 + 1e-12), (1.5, 1.3 + 1e-12)], margin=0.3)

    def test_rounded_collinear_pair_is_free(self):
        p1, p2, q1, q2 = ROUNDED_CROSSING
        assert not _segments_intersect(p1, p2, q1, q2)
        assert min(p1[0], p2[0]) - max(q1[0], q2[0]) > 0.2
        assert _segment_segment_distance(p1, p2, q1, q2) > 0.2
        wedge = Polygon((q1, q2, (0.0, -1.5)))
        m = ObstacleMap((-2, -2, 2, 2), (wedge,), (0, 0), (1, 1))
        for margin in (0.0, 0.01):
            assert m.segment_free(p1, p2, margin)
            assert assert_agrees(m, [p1, p2], margin)

    def test_separated_collinear_pairs_never_cross(self):
        # four sorted points on a random line, the second pair 0.2 further on
        rng = np.random.default_rng(0)
        n = 50_000
        a = rng.uniform(-1.0, 1.0, size=(n, 2))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        d = np.column_stack([np.cos(theta), np.sin(theta)])
        s = np.sort(rng.uniform(-1.0, 1.0, size=(n, 4)), axis=1)
        s[:, 2:] += 0.2
        pairs = (a[:, None, :] + s[:, :, None] * d[:, None, :]).tolist()
        assert not any(_segments_intersect(p1, p2, q1, q2) for p1, p2, q1, q2 in pairs)


@pytest.fixture(scope="module")
def seed42_run():
    """The bundled-map pipeline at degree 6/4, planner seed 42."""
    return run_pipeline(bundled_map(), PipelineConfig(series_degree=6, inversion_degree=4, seed=42))


class TestSimulatedPath:
    def test_free_and_blocked(self, seed42_run):
        out = seed42_run.trajectory.outputs
        points = [tuple(p) for p in out]
        base = bundled_map()
        assert base.polyline_free(out) and literal_polyline_free(base, points)
        k = len(out) // 2
        mid = (out[k] + out[k + 1]) / 2
        along = (out[k + 1] - out[k]) / np.hypot(*(out[k + 1] - out[k]))
        across = np.array([-along[1], along[0]])
        # no simulated point falls inside the strip: it is crossed, not entered
        corners = ((-1, -1), (1, -1), (1, 1), (-1, 1))
        strip = Polygon(tuple(tuple(mid + s * 0.2 * across + r * 1e-5 * along) for s, r in corners))
        for extra in (Circle(tuple(mid), 0.01), strip):
            m = ObstacleMap(base.bounds, base.obstacles + (extra,), base.start, base.goal)
            assert not m.polyline_free(out)
            assert not literal_polyline_free(m, points)
        assert not any(strip.collides_point(p) for p in points)

    def test_plan_at_trajectory_times(self, seed42_run):
        spline, times = seed42_run.spline, seed42_run.trajectory.times
        assert np.array_equal(spline.value(times), np.array([spline.value(t) for t in times]))


class TestRrt:
    def test_finds_path_and_edges_are_free(self):
        m = bundled_map()
        tree = rrt_plan(m, seed=42)
        path = extract_path(tree)
        assert path[0] == m.start
        assert path[-1] == m.goal
        assert m.polyline_free(path)
        for i in range(1, len(tree.nodes)):
            assert m.segment_free(tree.nodes[tree.parents[i]], tree.nodes[i])

    def test_deterministic_for_seed(self):
        m = bundled_map()
        t1 = rrt_plan(m, seed=7)
        t2 = rrt_plan(m, seed=7)
        assert t1.nodes == t2.nodes and t1.parents == t2.parents

    def test_unreachable_goal(self):
        with pytest.raises(PlanningError):
            rrt_plan(walled_goal_map(), seed=0, max_iters=300)

    def test_invalid_start_rejected_before_search(self):
        m = ObstacleMap((0, 0, 10, 10), (Circle((1, 1), 0.5),), (1, 1), (9, 9))
        with pytest.raises(PlanningError):
            rrt_plan(m, seed=0)

    def test_extract_needs_arrival(self):
        tree = RrtTree(nodes=((0.0, 0.0),), parents=(-1,), goal_index=-1)
        with pytest.raises(PlanningError):
            extract_path(tree)


class TestSegmentBroadPhase:
    def test_random_segments_match_the_exact_predicates(self, rng):
        decisions = set()
        for m in (bundled_map(), walled_goal_map()):
            xmin, ymin, xmax, ymax = m.bounds
            for margin in (0.0, 0.3):
                for _ in range(400):
                    a, b = (tuple(p) for p in rng.uniform((xmin, ymin), (xmax, ymax), size=(2, 2)))
                    got = m.segment_free(a, b, margin)
                    assert got == literal_segment_free(m, a, b, margin)
                    decisions.add(got)
        assert decisions == {True, False}

    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
    def test_planned_paths_unchanged(self, seed, monkeypatch):
        m = bundled_map()

        def plan():
            raw = extract_path(rrt_plan(m, seed=seed))
            return raw, smooth_path(raw, m, seed=seed + 1)

        got = plan()
        monkeypatch.setattr(ObstacleMap, "segment_free", literal_segment_free)
        assert plan() == got


class TestSmoothing:
    def test_shortcuts_to_straight_line(self):
        m = empty_map()
        detour = [(1, 1), (1, 9), (5, 9), (9, 9)]
        out = smooth_path(detour, m, seed=3)
        assert out[0] == (1, 1) and out[-1] == (9, 9)
        assert len(out) == 2

    def test_stays_collision_free(self):
        m = ObstacleMap((0, 0, 10, 10), (Circle((5, 5), 2.0),), (1, 1), (9, 9))
        path = [(1, 1), (1, 8), (5, 8.5), (9, 8), (9, 9)]
        out = smooth_path(path, m, seed=11)
        assert m.polyline_free(out)
        assert out[0] == path[0] and out[-1] == path[-1]


class TestFitSpline:
    def test_straight_line_single_section_is_linear(self):
        sp = fit_spline([(0.0, 0.0), (2.0, 1.0)], 1, total_time=2.0)
        sec = sp.sections[0]
        for row in sec.poly:
            assert abs(row[2]) < 1e-9 and abs(row[3]) < 1e-9
        assert np.allclose(sp.value(0.0), (0.0, 0.0), atol=1e-12)
        assert np.allclose(sp.value(2.0), (2.0, 1.0), atol=1e-9)
        assert sec.init.z3 == pytest.approx(math.atan2(1.0, 2.0), abs=1e-9)
        assert sec.init.z5 == pytest.approx(math.hypot(1.0, 0.5), rel=1e-9)

    def test_chained_sections_are_exactly_continuous(self):
        path = [(0.0, 0.0), (1.0, 2.0), (3.0, 2.5), (4.0, 0.5)]
        sp = fit_spline(path, 6, total_time=3.0)
        for a, b in zip(sp.sections, sp.sections[1:]):
            assert tuple(a.value(a.duration)) == (b.poly[0][0], b.poly[1][0])
            assert tuple(a.derivative(a.duration)) == (b.poly[0][1], b.poly[1][1])

    def test_fit_tracks_resampled_points(self):
        theta = np.linspace(0.0, math.pi / 2, 40)
        arc = [(math.cos(a), math.sin(a)) for a in theta]
        sp = fit_spline(arc, 8, total_time=2.0)
        ts = np.linspace(0.0, sp.total_time, 400)
        vals = np.array([sp.value(t) for t in ts])
        radii = np.hypot(vals[:, 0], vals[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 5e-3

    def test_initial_heading_honored(self):
        sp = fit_spline([(0.0, 0.0), (1.0, 0.0)], 2, initial_heading=0.4)
        assert sp.sections[0].init.z3 == 0.4
        assert sp.sections[1].init.z3 != 0.4

    def test_section_inits_validate(self):
        path = [(0.0, 0.0), (1.0, 1.5), (2.5, 1.0)]
        sp = fit_spline(path, 4, total_time=2.0)
        for sec in sp.sections:
            sec.init.validate()

    def test_error_cases(self):
        with pytest.raises(SplineFitError):
            fit_spline([(0.0, 0.0)], 1)
        with pytest.raises(SplineFitError):
            fit_spline([(0.0, 0.0), (1.0, 0.0)], 0)
        with pytest.raises(SplineFitError):
            fit_spline([(0.0, 0.0), (1.0, 0.0)], 1, total_time=0.0)
        with pytest.raises(SplineFitError):
            fit_spline([(1.0, 1.0), (1.0, 1.0)], 1)


class TestPathSpline:
    def make(self):
        path = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
        return fit_spline(path, 3, total_time=1.5)

    def test_locate_and_clamp(self):
        sp = self.make()
        assert sp.locate(0.0) == (0, 0.0)
        i, local = sp.locate(sp.total_time + 5.0)
        assert i == sp.n_sections - 1
        assert local == pytest.approx(sp.sections[-1].duration)

    def test_value_at_many_times_equals_per_time_loop(self):
        sp = self.make()
        uneven = PathSpline(
            tuple(dataclasses.replace(s, duration=d) for s, d in zip(sp.sections, (0.1, 0.2, 0.7)))
        )
        for spline in (sp, uneven):
            ends = [0.0, *itertools.accumulate(s.duration for s in spline.sections)]
            ts = np.concatenate(
                [
                    np.linspace(-0.5, spline.total_time + 0.5, 101),
                    ends,
                    np.nextafter(ends, -np.inf),
                    np.nextafter(ends, np.inf),
                    [math.nan],
                ]
            )
            want = np.array([spline.value(t) for t in ts])
            got = spline.value(ts)
            assert got.shape == want.shape == (len(ts), 2)
            assert np.array_equal(got, want, equal_nan=True)

    def test_value_continuity_at_junctions(self):
        sp = self.make()
        t_edge = sp.sections[0].duration
        before = sp.value(t_edge - 1e-12)
        after = sp.value(t_edge + 1e-12)
        assert np.allclose(before, after, atol=1e-9)

    def test_endpoint_and_sampling(self):
        sp = self.make()
        assert np.allclose(sp.endpoint(), sp.value(sp.total_time))
        pts = sp.sample(per_section=10)
        assert len(pts) == 3 * 10 + 1

    def test_json_round_trip(self, tmp_path):
        sp = self.make()
        doc = sp.to_json_dict()
        back = PathSpline.from_json_dict(doc)
        assert back.n_sections == sp.n_sections
        assert np.allclose(back.value(0.7), sp.value(0.7), atol=1e-12)
        # series rows alone must reconstruct the same polynomials
        for entry in doc["sections"]:
            del entry["poly"]
        from_series = PathSpline.from_json_dict(doc)
        assert np.allclose(from_series.value(0.7), sp.value(0.7), atol=1e-12)
        path = tmp_path / "spline.json"
        path.write_text(json.dumps(doc))
        assert np.allclose(load_spline(path).value(0.7), sp.value(0.7), atol=1e-12)

    def test_empty_document_rejected(self):
        with pytest.raises(MapFormatError):
            PathSpline.from_json_dict({"sections": []})
        with pytest.raises(MapFormatError):
            PathSpline.from_json_dict({"wrong": 1})

    def test_smooth_and_spline(self):
        m = empty_map()
        sp = smooth_and_spline([(1, 1), (1, 9), (9, 9)], 4, total_time=2.0, obstacle_map=m)
        assert sp.n_sections == 4
        assert np.allclose(sp.value(0.0), (1.0, 1.0), atol=1e-12)


class TestSvg:
    def test_overlay_contains_shapes(self, tmp_path):
        m = bundled_map()
        canvas = SvgCanvas(m.bounds)
        draw_map(canvas, m)
        canvas.polyline([(0, 0), (1, 1)], stroke="#06c")
        canvas.legend([("path", "#06c")])
        text = canvas.to_string()
        assert text.startswith("<svg ")
        assert "<circle" in text and "<polygon" in text and "<polyline" in text
        out = tmp_path / "overlay.svg"
        canvas.write(out)
        assert out.read_text() == text

    def test_y_axis_flips(self):
        canvas = SvgCanvas((0, 0, 10, 10))
        low = canvas.transform((5, 1))
        high = canvas.transform((5, 9))
        assert high[1] < low[1]
