"""End-to-end chain: plan, smooth, section, invert, simulate, report.

Each spline section is tracked by synthesizing polynomial inputs from
the explicit left-inversion formula applied to the extended car model
linearized nowhere: the full series is used.  The inputs are checked
against the realization itself, not against the generating series
they came from: Taylor-mode integration of the car under the
polynomial inputs gives the output's Taylor coefficients, which must
reproduce the reference through the inversion degree (the identity
gate), and their differences from the reference are the section's
error series.  Sections chain either in
"measured" mode (position and heading handed off from the simulated
end state, steering and speed re-solved from the first-order match,
jumps logged) or "planned" mode (every section starts exactly on the
spline).  All artifacts are deterministic for a fixed seed: the report
carries no timestamps and floats serialize through repr.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from fliess.errors import ConvergenceError, MapFormatError
from fliess.inversion import left_invert
from fliess.planner import PathSpline, extract_path, fit_spline, rrt_plan, smooth_path
from fliess.realization import Trajectory, generating_series, rk4_simulate, taylor_outputs
from fliess.svgplot import SvgCanvas, draw_map
from fliess.vehicle import CarParams, SectionInit, augmented_realization, solve_first_order_match

IDENTITY_RTOL = 1e-6  # the output jets must match the reference through the inversion degree


@dataclass(frozen=True)
class PipelineConfig:
    series_degree: int = 8
    inversion_degree: int = 6
    sections: int = 50
    total_time: float = 1.0
    seed: int = 42
    rk4_steps: int = 80  # per section
    params: CarParams = field(default_factory=CarParams)
    handoff: str = "measured"  # or "planned"
    branch: str = "auto"
    rrt_step: float = 0.75
    rrt_goal_bias: float = 0.1
    rrt_max_iters: int = 8000
    smoothing_passes: int = 200
    margin: float = 0.0
    samples_per_section: int = 12
    initial_heading: float = None
    arrival_tol: float = 0.2

    def validate(self):
        """The config itself; raises MapFormatError (a ValueError) for an option out of range."""
        if self.inversion_degree < 1:
            raise MapFormatError("inversion degree must be positive")
        if self.series_degree < self.inversion_degree + 2:
            raise MapFormatError(
                "series_degree must be at least inversion_degree + 2 "
                "(the extended car has vector relative degree [2, 2])"
            )
        if self.sections < 1 or not 0.0 < self.total_time < math.inf:
            raise MapFormatError("need a positive section count and a positive, finite total time")
        if self.rk4_steps < 1:
            raise MapFormatError("need at least one RK4 step per section")
        if self.handoff not in ("measured", "planned"):
            raise MapFormatError(f"unknown handoff mode {self.handoff!r}")
        if self.branch not in ("auto", "positive", "negative"):
            raise MapFormatError(f"unknown branch {self.branch!r}")
        if not 0.0 <= self.arrival_tol < math.inf:
            raise MapFormatError("arrival tolerance must be non-negative and finite")
        return self

    def to_json_dict(self):
        return asdict(self)


@dataclass
class SectionReport:
    """Everything recorded about one tracked section."""

    index: int
    init: SectionInit
    steering_rate_coeffs: list  # u2, the letter-1 channel
    speed_rate_coeffs: list     # du1/dt, the letter-2 channel
    error_series: list          # per output: reference minus the output's Taylor coefficients
    rms_tracking: float         # against the re-anchored reference cubic
    rms_plan: float             # against the original spline cubic
    endpoint: tuple             # simulated extended state at section end
    endpoint_deviation: float   # distance from the spline's section endpoint
    state_jump: tuple           # (dz4, dz5) applied at section start, or None
    trajectory: Trajectory

    def to_json_dict(self):
        return {
            "index": self.index,
            "init": self.init.to_json_dict(),
            "steering_rate_coeffs": list(self.steering_rate_coeffs),
            "speed_rate_coeffs": list(self.speed_rate_coeffs),
            "error_series": [list(row) for row in self.error_series],
            "rms_tracking": self.rms_tracking,
            "rms_plan": self.rms_plan,
            "endpoint": list(self.endpoint),
            "endpoint_deviation": self.endpoint_deviation,
            "state_jump": list(self.state_jump) if self.state_jump is not None else None,
        }


def run_section(section, init, cfg, state_jump=None):
    """Invert and simulate one spline section from the given start state.

    The reference expansion keeps the section's slope and curvature but
    re-anchors its constant terms to the start state, which is what
    makes the zeroth matching condition hold exactly.
    """
    init.validate(cfg.params)
    realization = augmented_realization(init, cfg.params)
    c = generating_series(realization, cfg.series_degree)
    c_y = section.taylor_output(constants=(init.z1, init.z2))
    c_u = left_invert(c, c_y, cfg.inversion_degree)

    trajectory = rk4_simulate(realization, c_u, section.duration, cfg.rk4_steps)

    yhat = taylor_outputs(realization, c_u.coeffs, cfg.series_degree)
    errors = c_y.padded(cfg.series_degree) - yhat
    scale = max(1.0, max(abs(v) for row in c_y.coeffs for v in row))
    worst = np.max(np.abs(errors[:, : cfg.inversion_degree + 1]))
    if worst > IDENTITY_RTOL * scale:
        raise ConvergenceError(
            f"Taylor expansion of the realization misses the reference through degree "
            f"{cfg.inversion_degree}: residual {worst:.3e} (scale {scale:.3e})"
        )

    sim = trajectory.outputs
    ref = c_y.eval(trajectory.times).T
    plan = np.array(
        [np.polynomial.polynomial.polyval(trajectory.times, row) for row in section.poly]
    ).T
    rms_tracking = float(np.sqrt(np.mean(np.sum((sim - ref) ** 2, axis=1))))
    rms_plan = float(np.sqrt(np.mean(np.sum((sim - plan) ** 2, axis=1))))
    end_state = tuple(float(v) for v in trajectory.final_state())
    endpoint_deviation = float(np.hypot(*(sim[-1] - plan[-1])))

    return SectionReport(
        index=-1,
        init=init,
        steering_rate_coeffs=[float(v) for v in c_u.coeffs[0]],
        speed_rate_coeffs=[float(v) for v in c_u.coeffs[1]],
        error_series=errors.tolist(),
        rms_tracking=rms_tracking,
        rms_plan=rms_plan,
        endpoint=end_state,
        endpoint_deviation=endpoint_deviation,
        state_jump=state_jump,
        trajectory=trajectory,
    )


def track_spline(spline, cfg):
    """Run every section with state handoff; returns the section reports."""
    reports = []
    current = spline.sections[0].init
    jump = None
    for j, section in enumerate(spline.sections):
        report = run_section(section, current, cfg, state_jump=jump)
        report.index = j
        reports.append(report)
        if j + 1 == len(spline.sections):
            break
        nxt = spline.sections[j + 1]
        if cfg.handoff == "planned":
            current, jump = nxt.init, None
        else:
            z1m, z2m, z3m = report.endpoint[0], report.endpoint[1], report.endpoint[2]
            slope = (nxt.poly[0][1], nxt.poly[1][1])
            z4, z5 = solve_first_order_match(slope, z3m, branch=cfg.branch, params=cfg.params)
            current = SectionInit(z1=z1m, z2=z2m, z3=z3m, z4=z4, z5=z5)
            jump = (z4 - report.endpoint[3], z5 - report.endpoint[4])
    return reports


@dataclass
class PipelineReport:
    config: PipelineConfig
    raw_path: list
    smoothed_path: list
    spline: PathSpline
    sections: list
    trajectory: Trajectory
    collision_free: bool
    goal_distance: float
    arrived: bool
    total_rms: float
    max_section_rms: float

    def summary_dict(self):
        return {
            "collision_free": self.collision_free,
            "goal_distance": self.goal_distance,
            "arrived": self.arrived,
            "total_rms": self.total_rms,
            "max_section_rms": self.max_section_rms,
            "endpoint": [float(v) for v in self.trajectory.outputs[-1]],
            "sections": len(self.sections),
        }

    def to_json_dict(self, obstacle_map=None):
        doc = {
            "config": self.config.to_json_dict(),
            "raw_path": [list(p) for p in self.raw_path],
            "smoothed_path": [list(p) for p in self.smoothed_path],
            "spline": self.spline.to_json_dict(),
            "sections": [r.to_json_dict() for r in self.sections],
            "summary": self.summary_dict(),
        }
        if obstacle_map is not None:
            doc["map"] = obstacle_map.to_json_dict()
        return doc


def run_pipeline(obstacle_map, cfg=None, outdir=None):
    """Plan on the map, track the spline, and optionally write artifacts.

    Writes traj.csv, report.json, and overlay.svg into outdir when
    given.  The report is byte-stable across runs with the same seed.
    """
    cfg = (cfg or PipelineConfig()).validate()
    tree = rrt_plan(
        obstacle_map,
        step=cfg.rrt_step,
        goal_bias=cfg.rrt_goal_bias,
        max_iters=cfg.rrt_max_iters,
        seed=cfg.seed,
        margin=cfg.margin,
    )
    raw_path = extract_path(tree)
    smoothed = smooth_path(
        raw_path, obstacle_map, seed=cfg.seed + 1, passes=cfg.smoothing_passes, margin=cfg.margin
    )
    spline = fit_spline(
        smoothed,
        cfg.sections,
        total_time=cfg.total_time,
        samples_per_section=cfg.samples_per_section,
        initial_heading=cfg.initial_heading,
        branch=cfg.branch,
        params=cfg.params,
    )
    reports = track_spline(spline, cfg)
    trajectory = Trajectory.concat([r.trajectory for r in reports])

    collision_free = obstacle_map.polyline_free(trajectory.outputs)
    end = trajectory.outputs[-1]
    goal_distance = float(math.hypot(end[0] - obstacle_map.goal[0], end[1] - obstacle_map.goal[1]))
    plan_all = spline.value(trajectory.times)
    total_rms = float(np.sqrt(np.mean(np.sum((trajectory.outputs - plan_all) ** 2, axis=1))))
    report = PipelineReport(
        config=cfg,
        raw_path=raw_path,
        smoothed_path=smoothed,
        spline=spline,
        sections=reports,
        trajectory=trajectory,
        collision_free=collision_free,
        goal_distance=goal_distance,
        arrived=goal_distance <= cfg.arrival_tol,
        total_rms=total_rms,
        max_section_rms=max(r.rms_plan for r in reports),
    )
    if outdir is not None:
        write_artifacts(report, obstacle_map, outdir)
    return report


def write_artifacts(report, obstacle_map, outdir):
    os.makedirs(outdir, exist_ok=True)
    report.trajectory.to_csv(os.path.join(outdir, "traj.csv"))
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report.to_json_dict(obstacle_map), fh, indent=2, sort_keys=True)
        fh.write("\n")
    canvas = SvgCanvas(obstacle_map.bounds)
    draw_map(canvas, obstacle_map)
    canvas.polyline(report.smoothed_path, stroke="#999", width=1.0, dash="6,4")
    canvas.polyline(report.spline.sample(), stroke="#06c", width=2.0, dash="2,3")
    canvas.polyline([tuple(p) for p in report.trajectory.outputs], stroke="#c22", width=1.5)
    canvas.legend(
        [
            ("smoothed path", "#999"),
            ("planned spline", "#06c"),
            ("simulated car", "#c22"),
        ]
    )
    canvas.write(os.path.join(outdir, "overlay.svg"))
