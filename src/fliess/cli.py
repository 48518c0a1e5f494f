"""Command line front end.

Exit codes: 0 success, 2 planning or input-format failure, 3 inversion
precondition failure, 4 numeric singularity, divergence or a non-finite
coefficient.
"""

from __future__ import annotations

import argparse
import json
import sys

from fliess.composition import compose, group_inverse
from fliess.errors import (
    ConvergenceError,
    EvaluationError,
    FliessError,
    InversionPreconditionError,
    MapFormatError,
    NonFiniteError,
    PlanningError,
    SimulationError,
    SingularConstantTermError,
    SplineFitError,
)
from fliess.inversion import TaylorOutput, left_invert
from fliess.pipeline import PipelineConfig, run_pipeline
from fliess.planner import (
    bundled_map,
    extract_path,
    load_map,
    load_spline,
    rrt_plan,
    smooth_and_spline,
)
from fliess.realization import ControlSignal, Trajectory, rk4_simulate
from fliess.series import dump_json, load_json_document, series_from_json, shuffle, shuffle_inverse
from fliess.vehicle import CarParams, SectionInit, augmented_realization


def _map_from_args(args):
    return load_map(args.map) if args.map else bundled_map()


def _car_params(args):
    return CarParams(length=args.length, k=args.k)


def _add_car_args(p):
    p.add_argument("--length", type=float, default=1.0, help="axle distance")
    p.add_argument("--k", type=float, default=-0.7, help="rear-steer gain")


def cmd_plan(args):
    m = _map_from_args(args)
    tree = rrt_plan(
        m,
        step=args.step,
        goal_bias=args.goal_bias,
        max_iters=args.max_iters,
        seed=args.seed,
        margin=args.margin,
    )
    path = extract_path(tree)
    dump_json({"points": [list(p) for p in path]}, args.out)
    print(f"planned {len(path)} waypoints ({len(tree.nodes)} tree nodes)")


def cmd_spline(args):
    doc = load_json_document(args.path)
    try:
        points = [tuple(float(v) for v in p) for p in doc["points"]]
    except (KeyError, TypeError) as exc:
        raise MapFormatError(f"malformed path document: {exc}") from exc
    obstacle_map = load_map(args.map) if args.map else None
    spline = smooth_and_spline(
        points,
        args.sections,
        total_time=args.total_time,
        obstacle_map=obstacle_map,
        seed=args.seed,
        passes=args.passes,
        margin=args.margin,
        samples_per_section=args.samples,
        initial_heading=args.initial_heading,
        branch=args.branch,
        params=_car_params(args),
    )
    dump_json(spline, args.out)
    print(f"fitted {spline.n_sections} sections over {spline.total_time:g} time units")


def cmd_invert(args):
    from fliess.realization import generating_series

    spline = load_spline(args.spline)
    params = _car_params(args)
    out_sections = []
    for section in spline.sections:
        realization = augmented_realization(section.init, params)
        c = generating_series(realization, args.series_degree)
        c_u = left_invert(c, section.taylor_output(), args.degree)
        out_sections.append(
            {
                "duration": section.duration,
                "init": section.to_json_dict()["init"],
                "steering_rate": [float(v) for v in c_u.coeffs[0]],
                "speed_rate": [float(v) for v in c_u.coeffs[1]],
            }
        )
    dump_json(
        {
            "degree": args.degree,
            "params": {"L": params.length, "k": params.k},
            "sections": out_sections,
        },
        args.out,
    )
    print(f"inverted {len(out_sections)} sections at degree {args.degree}")


def cmd_simulate(args):
    doc = load_json_document(args.inputs)
    try:
        params = CarParams(length=doc["params"]["L"], k=doc["params"]["k"])
        sections = []
        for entry in doc["sections"]:
            init = SectionInit(**{k: float(v) for k, v in entry["init"].items()})
            duration = float(entry["duration"])
            u = ControlSignal.from_taylor([entry["steering_rate"], entry["speed_rate"]], duration)
            sections.append((augmented_realization(init, params), u, duration))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MapFormatError(f"malformed inputs document: {exc}") from exc
    pieces = [rk4_simulate(r, u, duration, args.steps) for r, u, duration in sections]
    combined = Trajectory.concat(pieces)
    combined.to_csv(args.out)
    print(f"simulated {len(sections)} sections, {combined.times.size} samples")


def cmd_pipeline(args):
    m = _map_from_args(args)
    cfg = PipelineConfig(
        series_degree=args.series_degree,
        inversion_degree=args.inversion_degree,
        sections=args.sections,
        total_time=args.total_time,
        seed=args.seed,
        rk4_steps=args.steps,
        params=_car_params(args),
        handoff=args.handoff,
        branch=args.branch,
        rrt_step=args.step,
        rrt_goal_bias=args.goal_bias,
        rrt_max_iters=args.max_iters,
        smoothing_passes=args.passes,
        margin=args.margin,
        samples_per_section=args.samples,
        initial_heading=args.initial_heading,
        arrival_tol=args.arrival_tol,
    )
    report = run_pipeline(m, cfg, outdir=args.outdir)
    s = report.summary_dict()
    print(f"sections: {s['sections']}")
    print(f"collision-free: {s['collision_free']}")
    print(f"goal distance: {s['goal_distance']:.4f} (arrived: {s['arrived']})")
    print(f"total rms vs plan: {s['total_rms']:.4f} (worst section {s['max_section_rms']:.4f})")
    print(f"artifacts written to {args.outdir}")
    if not (s["collision_free"] and s["arrived"]):
        raise PlanningError("pipeline finished but missed the goal or hit an obstacle")


def _load_series_arg(path):
    return series_from_json(load_json_document(path))


def cmd_series(args):
    op = args.op
    if op in ("shuffle", "compose", "invert-op") and not args.infile2:
        raise MapFormatError(f"series {op} needs --in2")
    a = _load_series_arg(args.infile)
    if op == "shuffle":
        b = _load_series_arg(args.infile2)
        result = shuffle(a, b, args.degree)
    elif op == "compose":
        b = _load_series_arg(args.infile2)
        result = compose(a, b, args.degree)
    elif op == "ginverse":
        result = group_inverse(a, args.degree)
    elif op == "shinverse":
        result = shuffle_inverse(a, args.degree)
    elif op == "invert-op":
        doc = load_json_document(args.infile2)
        reference = TaylorOutput.from_json_dict(doc)
        if args.degree is None:
            raise MapFormatError("invert-op needs an explicit --degree")
        result = left_invert(a, reference, args.degree)
        dump_json(result, args.out)
        print(f"wrote input expansion of degree {result.degree}")
        return
    else:  # unreachable behind argparse choices
        raise ValueError(op)
    dump_json(result, args.out)
    print(f"wrote {args.out}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fliess",
        description="Series algebra, operator left inversion, and the car tracking pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="RRT path on an obstacle map")
    p.add_argument("--map", help="map JSON (bundled demo map when omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=0.75)
    p.add_argument("--goal-bias", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=8000)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("spline", help="smooth a path and fit sectioned cubics")
    p.add_argument("--path", required=True, help="path JSON with a points array")
    p.add_argument("--sections", type=int, default=50)
    p.add_argument("--total-time", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--map", help="enables collision-checked shortcut smoothing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=200)
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=12, help="fit samples per section")
    p.add_argument("--initial-heading", type=float, default=None)
    p.add_argument("--branch", choices=("auto", "positive", "negative"), default="auto")
    _add_car_args(p)
    p.set_defaults(func=cmd_spline)

    p = sub.add_parser("invert", help="per-section input synthesis from a spline")
    p.add_argument("--spline", required=True)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--series-degree", type=int, default=8)
    p.add_argument("--out", required=True)
    _add_car_args(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("simulate", help="integrate synthesized inputs section by section")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=80, help="RK4 steps per section")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="full chain: plan, fit, invert, simulate, report")
    p.add_argument("--map", help="map JSON (bundled demo map when omitted)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--outdir", required=True)
    p.add_argument("--sections", type=int, default=50)
    p.add_argument("--total-time", type=float, default=1.0)
    p.add_argument("--series-degree", type=int, default=8)
    p.add_argument("--inversion-degree", type=int, default=6)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--handoff", choices=("measured", "planned"), default="measured")
    p.add_argument("--branch", choices=("auto", "positive", "negative"), default="auto")
    p.add_argument("--step", type=float, default=0.75)
    p.add_argument("--goal-bias", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=8000)
    p.add_argument("--passes", type=int, default=200)
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--initial-heading", type=float, default=None)
    p.add_argument("--arrival-tol", type=float, default=0.2)
    _add_car_args(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("series", help="series algebra on JSON documents")
    p.add_argument(
        "op", choices=("shuffle", "compose", "ginverse", "shinverse", "invert-op")
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in2", dest="infile2", help="second operand where applicable")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_series)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        return 0
    except (PlanningError, SplineFitError, MapFormatError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InversionPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        SingularConstantTermError,
        ConvergenceError,
        EvaluationError,
        SimulationError,
        NonFiniteError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FliessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
