import dataclasses
import json
import math
import os
import subprocess
import sys
import typing

import numpy as np
import pytest

import fliess
import fliess.cli
import fliess.composition
import fliess.inversion
import fliess.pipeline
import fliess.realization
import fliess.series
from fliess import symexpr as se
from fliess.cli import build_parser, main
from fliess.errors import ConvergenceError
from fliess.inversion import left_invert, tracking_error_series
from fliess.pipeline import (
    IDENTITY_RTOL,
    PipelineConfig,
    run_pipeline,
    run_section,
    track_spline,
    write_artifacts,
)
from fliess.planner import ObstacleMap, bundled_map, fit_spline, load_spline, save_map
from fliess.realization import Realization, generating_series, taylor_outputs
from fliess.series import MatrixSeries, Series, VectorSeries, dump_json
from fliess.vehicle import augmented_realization


def fast_cfg(**overrides):
    base = dict(
        series_degree=6,
        inversion_degree=4,
        sections=4,
        total_time=1.0,
        rk4_steps=40,
        rrt_max_iters=4000,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def empty_map():
    return ObstacleMap(bounds=(0, 0, 10, 10), obstacles=(), start=(1, 1), goal=(9, 9))


def series_doc(max_degree=3, word=(1,), coeff=1.0):
    """A scalar series document over two letters with one term."""
    return {"alphabet_size": 2, "max_degree": max_degree, "terms": [{"word": word, "coeff": coeff}]}


def map_doc(**overrides):
    return dict(empty_map().to_json_dict(), **overrides)


def straight_section():
    return fit_spline([(0.0, 0.0), (2.0, 0.0)], 1, total_time=0.5).sections[0]


def curved_section():
    theta = np.linspace(0.0, 0.8, 30)
    arc = [(2 * math.sin(a), 2 * (1 - math.cos(a))) for a in theta]
    return fit_spline(arc, 2, total_time=0.4).sections[0]


class TestConfig:
    def test_defaults_validate(self):
        cfg = PipelineConfig()
        assert cfg.validate() is cfg
        assert cfg.section_duration == pytest.approx(1.0 / 50)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PipelineConfig(inversion_degree=0).validate()
        with pytest.raises(ValueError):
            PipelineConfig(series_degree=6, inversion_degree=6).validate()
        with pytest.raises(ValueError):
            PipelineConfig(sections=0).validate()
        for total_time in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive, finite total time"):
                PipelineConfig(total_time=total_time).validate()
        with pytest.raises(ValueError):
            PipelineConfig(handoff="psychic").validate()
        with pytest.raises(ValueError):
            PipelineConfig(rk4_steps=0).validate()
        with pytest.raises(ValueError, match="unknown branch"):
            PipelineConfig(branch="sideways").validate()
        for arrival_tol in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="arrival tolerance"):
                PipelineConfig(arrival_tol=arrival_tol).validate()

    def test_json_dict(self):
        doc = PipelineConfig().to_json_dict()
        assert doc["sections"] == 50 and doc["params"]["k"] == -0.7


class TestRunSection:
    def test_straight_section_tracks_exactly(self):
        spline = fit_spline([(0.0, 0.0), (2.0, 0.0)], 1, total_time=0.5)
        cfg = fast_cfg()
        report = run_section(spline.sections[0], spline.sections[0].init, cfg)
        assert report.rms_tracking < 1e-8
        assert report.rms_plan < 1e-8
        assert report.endpoint_deviation < 1e-8
        assert np.allclose(report.endpoint[:2], (2.0, 0.0), atol=1e-8)
        # straight line at constant speed needs no steering or thrust
        assert np.max(np.abs(report.steering_rate_coeffs)) < 1e-8
        assert np.max(np.abs(report.speed_rate_coeffs)) < 1e-8
        assert np.array(report.error_series).shape == (2, cfg.series_degree + 1)

    def test_curved_section_tracks_well(self):
        section = curved_section()
        report = run_section(section, section.init, fast_cfg())
        assert report.rms_tracking < 5e-4
        assert report.state_jump is None

    def test_state_jump_passthrough(self):
        spline = fit_spline([(0.0, 0.0), (2.0, 0.0)], 1, total_time=0.5)
        report = run_section(
            spline.sections[0], spline.sections[0].init, fast_cfg(), state_jump=(0.1, -0.2)
        )
        assert report.state_jump == (0.1, -0.2)


class TestBoundedCaches:
    def test_no_cache_grows_with_distinct_gains(self):
        # perfbench's per-layer gauges read these four caches by name;
        # every gain runs at series degrees 6 and 8 in one process
        caches = (
            fliess.realization._TABLE_CACHE,
            fliess.realization._COMPILED,
            se._TABLE,
            se._DIFF_CACHE,
        )
        section = curved_section()
        cfgs = (fast_cfg(), fast_cfg(series_degree=8, inversion_degree=6))
        car = augmented_realization(section.init)
        sizes = []
        for i in range(100):
            params = fliess.CarParams(length=0.7 + 0.008 * i, k=-0.95 + 0.005 * i)
            for cfg in cfgs:
                run_section(section, section.init, dataclasses.replace(cfg, params=params))
            plans = {
                key[2]: plan
                for key, plan in fliess.realization._TABLE_CACHE.items()
                if key[:2] == (car.fields, car.outputs)
            }
            # one plan per (fields, outputs, degree) for every gain, each
            # with bounded derived maps (other tests may add degrees)
            assert {6, 8} <= set(plans)
            derived = tuple(len(plans[d]._derived) for d in (6, 8))
            sizes.append(tuple(len(cache) for cache in caches) + (len(plans),) + derived)
        assert all(size > 0 for size in sizes[0])
        assert set(sizes) == {sizes[0]}


class TestIdentityGate:
    """The gate integrates the realization; it does not trust the series."""

    def test_error_series_matches_the_composition(self):
        section, cfg = curved_section(), fast_cfg()
        report = run_section(section, section.init, cfg)
        c = generating_series(augmented_realization(section.init, cfg.params), cfg.series_degree)
        c_y = section.taylor_output(constants=(section.init.z1, section.init.z2))
        c_u = left_invert(c, c_y, cfg.inversion_degree)
        want = tracking_error_series(c, c_u, c_y, cfg.series_degree)
        scale = max(1.0, max(abs(v) for row in c_y.coeffs for v in row))
        assert np.max(np.abs(np.array(report.error_series) - want)) <= 1e-9 * scale

    def test_corrupted_table_entry_is_caught(self, monkeypatch):
        section, cfg = curved_section(), fast_cfg()

        def corrupted(realization, degree):
            # one drift coefficient above the relative degree 2, off by 1
            c = generating_series(realization, degree)
            return VectorSeries([c[0] + Series.monomial((0, 0, 0), 3, degree), c[1]])

        monkeypatch.setattr(fliess.pipeline, "generating_series", corrupted)
        with pytest.raises(ConvergenceError, match="through degree 4"):
            run_section(section, section.init, cfg)
        # composing the corrupted series with its own inverse misses the fault
        c = corrupted(augmented_realization(section.init, cfg.params), cfg.series_degree)
        c_y = section.taylor_output(constants=(section.init.z1, section.init.z2))
        c_u = left_invert(c, c_y, cfg.inversion_degree)
        err = tracking_error_series(c, c_u, c_y, cfg.series_degree)
        scale = max(1.0, max(abs(v) for row in c_y.coeffs for v in row))
        assert np.max(np.abs(err[:, : cfg.inversion_degree + 1])) <= IDENTITY_RTOL * scale

    def test_pipeline_runs_without_the_general_series_algebra(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("the general series algebra ran inside run_pipeline")

        monkeypatch.setattr(fliess.composition, "compose", unavailable)
        monkeypatch.setattr(fliess.inversion, "compose", unavailable)
        monkeypatch.setattr(fliess.series, "shuffle_terms", unavailable)
        monkeypatch.setattr(fliess.composition, "shuffle_terms", unavailable)
        report = run_pipeline(bundled_map(), fast_cfg(sections=6, total_time=1.0))
        assert len(report.sections) == 6
        assert all(np.all(np.isfinite(r.error_series)) for r in report.sections)


class TestTrackSpline:
    def make_spline(self, sections=3):
        path = [(0.0, 0.0), (1.5, 1.0), (3.0, 1.2)]
        return fit_spline(path, sections, total_time=0.75)

    def test_measured_handoff_is_continuous(self):
        spline = self.make_spline()
        reports = track_spline(spline, fast_cfg(handoff="measured"))
        assert [r.index for r in reports] == [0, 1, 2]
        assert reports[0].state_jump is None
        for prev, cur in zip(reports, reports[1:]):
            assert cur.init.z1 == prev.endpoint[0]
            assert cur.init.z2 == prev.endpoint[1]
            assert cur.init.z3 == prev.endpoint[2]
            assert cur.state_jump == (
                cur.init.z4 - prev.endpoint[3],
                cur.init.z5 - prev.endpoint[4],
            )

    def test_planned_handoff_resets_to_spline(self):
        spline = self.make_spline()
        reports = track_spline(spline, fast_cfg(handoff="planned"))
        for section, report in zip(spline.sections, reports):
            assert report.init == section.init
            assert report.state_jump is None


class TestRunPipeline:
    def test_straight_course_is_nearly_exact(self):
        report = run_pipeline(empty_map(), fast_cfg())
        assert report.arrived and report.collision_free
        assert report.goal_distance < 1e-6
        assert report.total_rms < 1e-6
        assert len(report.sections) == 4
        assert report.trajectory.outputs.shape[1] == 2

    def test_deterministic_documents(self):
        m = empty_map()
        d1 = run_pipeline(m, fast_cfg()).to_json_dict(m)
        d2 = run_pipeline(m, fast_cfg()).to_json_dict(m)
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_artifacts_written(self, tmp_path):
        report = run_pipeline(empty_map(), fast_cfg(), outdir=tmp_path)
        for name in ("traj.csv", "report.json", "overlay.svg"):
            assert (tmp_path / name).exists()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) >= {"config", "raw_path", "smoothed_path", "spline", "sections", "summary", "map"}
        assert doc["summary"]["arrived"] is True
        data = np.genfromtxt(tmp_path / "traj.csv", delimiter=",", names=True)
        assert set(data.dtype.names) == {"t", "z1", "z2", "z3", "z4", "z5", "y1", "y2"}
        svg = (tmp_path / "overlay.svg").read_text()
        assert svg.startswith("<svg ") and "polyline" in svg

    def test_write_artifacts_standalone(self, tmp_path):
        m = empty_map()
        report = run_pipeline(m, fast_cfg())
        write_artifacts(report, m, tmp_path / "out")
        assert (tmp_path / "out" / "report.json").exists()

    def test_public_class_annotations_resolve(self):
        classes = [getattr(fliess, n) for n in fliess.__all__ if isinstance(getattr(fliess, n), type)]
        assert fliess.PipelineReport in classes
        for cls in classes:
            typing.get_type_hints(cls)


class TestDiscreteFields:
    """The artifact protocol's discrete fields at degree 6/4 on the planner seeds.

    A change that moves the numbers at the rounding level must leave
    these alone: the run is collision-free and arrives, has 50
    sections, and every section starts on the positive-speed branch.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
    def test_safe_arrival_on_the_positive_branch(self, seed):
        report = run_pipeline(bundled_map(), PipelineConfig(series_degree=6, inversion_degree=4, seed=seed))
        assert report.collision_free and report.arrived
        assert len(report.sections) == 50
        assert all(r.init.z5 > 0.0 for r in report.sections)


HISTORY_PROBE = """
import hashlib, json, os, sys
from fliess import PipelineConfig, bundled_map, compose, generating_series, run_pipeline
from fliess.series import Series, VectorSeries, shuffle
from fliess.vehicle import augmented_realization, car_realization

a = Series(3, 6, {(1, 0): 0.5, (0, 2, 1): -1.25, (2,): 2.0, (0,): 0.3})
b = Series(3, 6, {(2, 1): 1.5, (0,): 0.75, (1, 1, 0): -0.5, (1,): 0.2})
if sys.argv[1] == "polluted":
    # other interned nodes first, and every word pair in both orientations
    generating_series(car_realization((0, 0, 0, 0.1)), 7)
    for x in (a, b):
        for y in (a, b):
            shuffle(y, x, 6)
out = {}
for seed in (1, 42):
    outdir = os.path.join(sys.argv[2], str(seed))
    run_pipeline(bundled_map(), PipelineConfig(series_degree=6, inversion_degree=4, seed=seed), outdir=outdir)
    with open(os.path.join(outdir, "report.json"), "rb") as fh:
        out[f"report.json {seed}"] = hashlib.sha256(fh.read()).hexdigest()
c = generating_series(augmented_realization((0.3, -0.5, 0.2, 0.4, 1.6)), 6)
out["generating_series"] = repr([list(comp.terms_dict().items()) for comp in c])
out["compose"] = repr([list(comp.terms_dict().items()) for comp in compose(c, VectorSeries([a, b]), 6)])
print(json.dumps(out))
"""


class TestHistoryIndependence:
    """Numbers do not depend on what the process built before, nor on its hash seed."""

    def probe(self, tmp_path, mode, hash_seed):
        src = os.path.dirname(os.path.dirname(fliess.__file__))
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        outdir = tmp_path / mode
        done = subprocess.run(
            [sys.executable, "-c", HISTORY_PROBE, mode, str(outdir)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        return json.loads(done.stdout)

    def test_fresh_and_polluted_processes_agree(self, tmp_path):
        fresh = self.probe(tmp_path, "fresh", 0)
        polluted = self.probe(tmp_path, "polluted", 1)
        assert fresh.keys() == polluted.keys()
        for key in fresh:
            assert fresh[key] == polluted[key], key


class TestCli:
    def run_ok(self, argv):
        assert main(argv) == 0

    def test_stagewise_chain(self, tmp_path, capsys):
        m = tmp_path / "map.json"
        save_map(empty_map(), m)
        plan = tmp_path / "plan.json"
        self.run_ok(["plan", "--map", str(m), "--seed", "3", "--out", str(plan)])
        assert "waypoints" in capsys.readouterr().out

        # the pipeline smooths with its planner seed + 1
        spline = tmp_path / "spline.json"
        self.run_ok(
            [
                "spline",
                "--path", str(plan),
                "--map", str(m),
                "--seed", "4",
                "--sections", "3",
                "--total-time", "0.75",
                "--out", str(spline),
            ]
        )
        cfg = PipelineConfig(seed=3, sections=3, total_time=0.75, series_degree=6, inversion_degree=4)
        expected = run_pipeline(empty_map(), cfg).spline.to_json_dict()
        assert json.loads(spline.read_text()) == json.loads(json.dumps(expected))
        written = load_spline(spline)
        assert written.n_sections == 3
        assert np.allclose(written.value(0.0), empty_map().start, atol=1e-12)

        inputs = tmp_path / "inputs.json"
        self.run_ok(
            [
                "invert",
                "--spline", str(spline),
                "--degree", "4",
                "--series-degree", "6",
                "--out", str(inputs),
            ]
        )
        doc = json.loads(inputs.read_text())
        assert len(doc["sections"]) == 3
        assert len(doc["sections"][0]["steering_rate"]) == 5

        traj = tmp_path / "traj.csv"
        self.run_ok(["simulate", "--inputs", str(inputs), "--out", str(traj), "--steps", "40"])
        data = np.genfromtxt(traj, delimiter=",", names=True)
        assert data["t"][-1] == pytest.approx(0.75)

    def test_pipeline_defaults_are_the_config(self, tmp_path, monkeypatch):
        built = []

        def record(obstacle_map, cfg, outdir=None):
            built.append(cfg)
            raise fliess.PlanningError("recorded")

        monkeypatch.setattr(fliess.cli, "run_pipeline", record)
        assert main(["pipeline", "--outdir", str(tmp_path / "run")]) == 2
        assert built == [PipelineConfig()]

    @pytest.mark.parametrize(
        "command,required,flag,other,expected",
        [
            ("plan", [], "--step", "3", PipelineConfig().rrt_step),
            ("plan", [], "--goal-bias", "0.5", PipelineConfig().rrt_goal_bias),
            ("plan", [], "--max-iters", "3", PipelineConfig().rrt_max_iters),
            ("plan", [], "--margin", "3", PipelineConfig().margin),
            ("spline", ["--path", "p"], "--sections", "3", PipelineConfig().sections),
            ("spline", ["--path", "p"], "--total-time", "3", PipelineConfig().total_time),
            ("spline", ["--path", "p"], "--passes", "3", PipelineConfig().smoothing_passes),
            ("spline", ["--path", "p"], "--margin", "3", PipelineConfig().margin),
            ("spline", ["--path", "p"], "--samples", "3", PipelineConfig().samples_per_section),
            ("spline", ["--path", "p"], "--initial-heading", "3", PipelineConfig().initial_heading),
            ("spline", ["--path", "p"], "--branch", "positive", PipelineConfig().branch),
            ("spline", ["--path", "p"], "--length", "3", fliess.CarParams().length),
            ("spline", ["--path", "p"], "--k", "3", fliess.CarParams().k),
            ("invert", ["--spline", "s"], "--degree", "3", PipelineConfig().inversion_degree),
            ("invert", ["--spline", "s"], "--series-degree", "3", PipelineConfig().series_degree),
            ("invert", ["--spline", "s"], "--length", "3", fliess.CarParams().length),
            ("invert", ["--spline", "s"], "--k", "3", fliess.CarParams().k),
            ("simulate", ["--inputs", "i"], "--steps", "3", PipelineConfig().rk4_steps),
        ],
    )
    def test_subcommand_defaults_are_the_library_defaults(
        self, command, required, flag, other, expected
    ):
        # the option's destination is the one attribute that giving it changes
        argv = [command, "--out", "o"] + required
        default = vars(build_parser().parse_args(argv))
        given = vars(build_parser().parse_args(argv + [flag, other]))
        (dest,) = [key for key in default if default[key] != given[key]]
        assert default[dest] == expected

    def test_pipeline_command(self, tmp_path, capsys):
        m = tmp_path / "map.json"
        save_map(empty_map(), m)
        outdir = tmp_path / "run"
        self.run_ok(
            [
                "pipeline",
                "--map", str(m),
                "--outdir", str(outdir),
                "--sections", "4",
                "--series-degree", "6",
                "--inversion-degree", "4",
                "--steps", "40",
            ]
        )
        out = capsys.readouterr().out
        assert "collision-free: True" in out
        assert (outdir / "overlay.svg").exists()

    @staticmethod
    def write_inputs(path, **overrides):
        section = {
            "duration": 0.1,
            "init": {"z1": 0.0, "z2": 0.0, "z3": 0.0, "z4": 0.1, "z5": 1.0},
            "steering_rate": [0.0],
            "speed_rate": [0.0],
        }
        section.update(overrides)
        path.write_text(json.dumps({"params": {"L": 1.0, "k": -0.7}, "sections": [section]}))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"init": {"z1": 0.0, "z2": 0.0, "z3": 0.0, "z4": 0.1}},  # no z5
            {"init": [0.0, 0.0, 0.0, 0.1, 1.0]},
            {"duration": "short"},
            {"steering_rate": 5},
            {"steering_rate": []},
            {"steering_rate": [0.0, 1.0]},  # channels of unequal length
        ],
    )
    def test_exit_code_2_for_malformed_simulate_inputs(self, tmp_path, capsys, overrides):
        inputs = tmp_path / "inputs.json"
        self.write_inputs(inputs, **overrides)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--inputs", str(inputs), "--out", str(out)]) == 2
        assert "malformed inputs document" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_2_for_a_zero_car_length_in_simulate_inputs(self, tmp_path, capsys):
        inputs = tmp_path / "inputs.json"
        self.write_inputs(inputs)
        doc = json.loads(inputs.read_text())
        doc["params"]["L"] = 0
        inputs.write_text(json.dumps(doc))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--inputs", str(inputs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: car length must be positive and finite, got 0\n"
        assert not out.exists()

    def test_exit_code_4_for_infinite_input(self, tmp_path, capsys):
        # json reads Infinity; the first stage of the first step is not finite
        inputs = tmp_path / "inputs.json"
        self.write_inputs(inputs, steering_rate=[math.inf])
        assert "Infinity" in inputs.read_text()
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--inputs", str(inputs), "--out", str(out), "--steps", "10"]) == 4
        assert capsys.readouterr().err == "error: non-finite state at t=0.01\n"
        assert not out.exists()

    @pytest.mark.parametrize("total_time", ["nan", "inf"])
    def test_exit_code_2_for_non_finite_spline_time(self, tmp_path, capsys, total_time):
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"points": [[0.0, 0.0], [2.0, 0.0]]}))
        argv = ["spline", "--path", str(path), "--sections", "1", "--out", str(tmp_path / "o")]
        assert main(argv + ["--total-time", total_time]) == 2
        assert capsys.readouterr().err == "error: total time must be positive and finite\n"

    def test_exit_code_1_for_zero_steps(self, tmp_path, capsys):
        inputs = tmp_path / "inputs.json"
        self.write_inputs(inputs)
        m = tmp_path / "map.json"
        save_map(empty_map(), m)
        for argv in (
            ["simulate", "--inputs", str(inputs), "--out", str(tmp_path / "traj.csv")],
            ["pipeline", "--map", str(m), "--outdir", str(tmp_path / "run")],
        ):
            assert main(argv + ["--steps", "0"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,extra,code,message",
        [
            ("pipeline", ["--samples", "0"], 2, "at least one fit sample per section"),
            ("pipeline", ["--samples", "-3"], 2, "at least one fit sample per section"),
            ("pipeline", ["--initial-heading", "nan"], 2, "initial heading must be finite"),
            ("pipeline", ["--step", "nan"], 2, "RRT step must be positive and finite"),
            ("pipeline", ["--goal-bias", "nan"], 2, "goal bias must lie in [0, 1]"),
            ("pipeline", ["--margin", "nan"], 2, "margin must be non-negative and finite"),
            ("pipeline", ["--arrival-tol", "nan"], 1, "arrival tolerance must be non-negative"),
            ("pipeline", ["--arrival-tol", "-1"], 1, "arrival tolerance must be non-negative"),
            ("plan", ["--step", "0"], 2, "RRT step must be positive and finite"),
            ("plan", ["--step", "inf"], 2, "RRT step must be positive and finite"),
            ("plan", ["--goal-bias", "1.5"], 2, "goal bias must lie in [0, 1]"),
            ("plan", ["--margin", "-1"], 2, "margin must be non-negative and finite"),
            ("spline", ["--samples", "0"], 2, "at least one fit sample per section"),
            ("spline", ["--initial-heading", "inf"], 2, "initial heading must be finite"),
            ("pipeline", ["--length", "nan"], 2, "car length must be positive and finite, got nan"),
            ("pipeline", ["--length", "0"], 2, "car length must be positive and finite, got 0.0"),
            ("pipeline", ["--k", "nan"], 2, "rear-steer gain k must be finite, got nan"),
            ("plan", ["--max-iters", "-5"], 2, "max iterations must be non-negative, got -5"),
            ("pipeline", ["--max-iters", "-5"], 2, "max iterations must be non-negative, got -5"),
        ],
    )
    def test_bad_planner_inputs_fail_up_front(self, tmp_path, capsys, command, extra, code, message):
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"points": [[0.0, 0.0], [2.0, 0.0]]}))
        argv = {
            "pipeline": ["--outdir", str(tmp_path / "run"), "--sections", "4"]
            + ["--series-degree", "6", "--inversion-degree", "4"],
            "plan": ["--out", str(tmp_path / "o")],
            "spline": ["--path", str(path), "--sections", "1", "--out", str(tmp_path / "o")],
        }[command]
        assert main([command] + argv + extra) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists() and not (tmp_path / "run").exists()

    def test_series_ops(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "out.json"
        dump_json(Series(2, 4, {(1,): 1.0}), a)
        dump_json(Series(2, 4, {(0,): 1.0}), b)
        self.run_ok(["series", "shuffle", "--in", str(a), "--in2", str(b), "--out", str(out)])
        doc = json.loads(out.read_text())
        words = {tuple(t["word"]): t["coeff"] for t in doc["terms"]}
        assert words == {(0, 1): 1.0, (1, 0): 1.0}
        c = tmp_path / "c.json"
        dump_json(Series(2, 4, {(): 1.0, (0,): 1.0}), c)
        self.run_ok(["series", "shinverse", "--in", str(c), "--out", str(out), "--degree", "3"])
        inv = {tuple(t["word"]): t["coeff"] for t in json.loads(out.read_text())["terms"]}
        assert inv[()] == pytest.approx(1.0)
        assert inv[(0,)] == pytest.approx(-1.0)

    def test_exit_code_2_for_bad_inputs(self, tmp_path, capsys):
        assert main(["plan", "--map", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
        a = tmp_path / "a.json"
        dump_json(Series(2, 4, {(1,): 1.0}), a)
        assert main(["series", "shuffle", "--in", str(a), "--out", str(tmp_path / "o")]) == 2
        assert (
            main(["series", "invert-op", "--in", str(a), "--in2", str(a), "--out", str(tmp_path / "o")])
            == 2
        )
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command,document",
        [
            pytest.param("series", series_doc(coeff="x"), id="coefficient-x"),
            pytest.param("series", series_doc(word=[5]), id="letter-outside-alphabet"),
            pytest.param("series", series_doc(max_degree=-1), id="negative-max-degree"),
            pytest.param("series", 5, id="series-number"),
            pytest.param("invert-op", {"outputs": [["a"], [0.0]]}, id="reference-string"),
            pytest.param("invert-op", {"outputs": [[0.0, 1.0], [0.0]]}, id="reference-ragged"),
            pytest.param("invert-op", {"outputs": [5, 5]}, id="reference-numbers"),
            pytest.param("invert-op", [5, 5], id="reference-list"),
            pytest.param("map", map_doc(bounds="x"), id="map-bounds-x"),
            pytest.param(
                "map",
                map_doc(obstacles=[{"type": "circle", "center": [5, 5], "radius": "r"}]),
                id="map-radius-r",
            ),
            pytest.param("map", 5, id="map-number"),
            pytest.param("map", [1, 2], id="map-list"),
            pytest.param(
                "spline",
                {"sections": [dict(straight_section().to_json_dict(), duration="d")]},
                id="spline-duration-d",
            ),
            pytest.param("path", {"points": [["a", 1], [1.0, 1.0]]}, id="path-point-a"),
        ],
    )
    def test_exit_code_2_for_malformed_documents(self, tmp_path, capsys, command, document):
        doc = tmp_path / "doc.json"
        out = tmp_path / "o"
        doc.write_text(json.dumps(document))
        plant = tmp_path / "plant.json"
        dump_json(Series(3, 4, {(0, 1): 1.0}), plant)
        argv = {
            "series": ["series", "shinverse", "--in", str(doc)],
            "invert-op": ["series", "invert-op", "--in", str(plant), "--in2", str(doc), "--degree", "2"],
            "map": ["plan", "--map", str(doc)],
            "spline": ["invert", "--spline", str(doc)],
            "path": ["spline", "--path", str(doc)],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_exit_code_2_for_unreachable_goal(self, tmp_path, capsys):
        from test_planner import walled_goal_map

        m = tmp_path / "walled.json"
        save_map(walled_goal_map(), m)
        assert main(["plan", "--map", str(m), "--max-iters", "200", "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_exit_code_3_for_precondition_failure(self, tmp_path, capsys):
        plant = tmp_path / "plant.json"
        ref = tmp_path / "ref.json"
        out = tmp_path / "out.json"
        # drift-only plant has no relative degree
        dump_json(Series(2, 6, {(0,): 1.0}), plant)
        ref.write_text(json.dumps({"outputs": [[0.0, 0.0, 1.0]], "convention": "series"}))
        code = main(
            ["series", "invert-op", "--in", str(plant), "--in2", str(ref), "--degree", "2", "--out", str(out)]
        )
        assert code == 3
        capsys.readouterr()

    def test_exit_code_4_for_singular_shuffle_inverse(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        dump_json(Series(2, 4, {(1,): 1.0}), a)  # zero constant term
        assert main(["series", "shinverse", "--in", str(a), "--out", str(tmp_path / "o")]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize(
        "op,first,second",
        [
            ("shuffle", "matrix", "scalar"),
            ("compose", "vector", "scalar"),
            ("compose", "matrix", "vector"),
            ("shinverse", "vector", None),
        ],
    )
    def test_exit_code_2_for_operands_of_the_wrong_kind(self, tmp_path, capsys, op, first, second):
        s = Series(3, 3, {(): 1.0, (1,): 0.5})
        docs = {"scalar": s, "vector": VectorSeries([s, s]), "matrix": MatrixSeries([[s, s], [s, s]])}
        argv = ["series", op, "--out", str(tmp_path / "o")]
        for flag, kind in (("--in", first), ("--in2", second)):
            if kind is not None:
                dump_json(docs[kind], tmp_path / f"{kind}.json")
                argv += [flag, str(tmp_path / f"{kind}.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: series {op} does not accept {first}")
        assert not (tmp_path / "o").exists()

    def test_exit_code_4_for_non_finite_coefficient(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        # json writes the non-standard NaN literal and reads it back as float('nan')
        a.write_text(
            json.dumps({"alphabet_size": 2, "max_degree": 3, "terms": [{"word": [1], "coeff": math.nan}]})
        )
        assert main(["series", "shuffle", "--in", str(a), "--in2", str(a), "--out", str(tmp_path / "o")]) == 4
        assert "nan" in capsys.readouterr().err

    def test_exit_code_4_for_a_pole_inside_a_jet(self, tmp_path, capsys, monkeypatch):
        def with_pole(realization, u, degree):
            # an extra output 1/(z1 - z1(0)) puts a zero denominator in its jet
            pole = 1.0 / (se.var(0) - realization.z0[0])
            extended = Realization(
                realization.fields, realization.outputs + (pole,), realization.z0, realization.params
            )
            return taylor_outputs(extended, u, degree)

        monkeypatch.setattr(fliess.pipeline, "taylor_outputs", with_pole)
        m = tmp_path / "map.json"
        save_map(empty_map(), m)
        argv = ["pipeline", "--map", str(m), "--outdir", str(tmp_path / "run"), "--sections", "2"]
        assert main(argv) == 4
        assert "zero denominator in a Taylor jet" in capsys.readouterr().err

    def test_exit_code_4_for_overflow_in_series_arithmetic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        # A0^-1 = 1e10 scales the 1e300 coefficient past the float range
        dump_json(Series(2, 3, {(): 1e-10, (1,): 1e300}), a)
        out = tmp_path / "o"
        assert main(["series", "shinverse", "--in", str(a), "--out", str(out)]) == 4
        assert "inf" in capsys.readouterr().err
        assert not out.exists()
