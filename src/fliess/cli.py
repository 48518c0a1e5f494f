"""Command line front end.

Exit codes: 0 success, 2 planning failure, input-format failure or bad
option value, 3 inversion precondition failure, 4 numeric singularity,
divergence or a non-finite coefficient.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    decoding,
)
from fliess.inversion import TaylorOutput, left_invert
from fliess.pipeline import PipelineConfig, run_pipeline
from fliess.planner import (
    _point,
    bundled_map,
    extract_path,
    fit_spline,
    load_map,
    load_spline,
    rrt_plan,
    smooth_path,
)
from fliess.realization import Trajectory, rk4_simulate
from fliess.series import (
    MatrixSeries,
    Series,
    VectorSeries,
    dump_json,
    load_json_document,
    series_from_json,
    shuffle,
    shuffle_inverse,
)
from fliess.vehicle import CarParams, SectionInit, augmented_realization


_CONFIG = PipelineConfig()


def _map_from_args(args):
    return load_map(args.map) if args.map else bundled_map()


def _car_params(args):
    return CarParams(length=args.length, k=args.k)


def _add_car_args(p):
    p.add_argument("--length", type=float, default=_CONFIG.params.length, help="axle distance")
    p.add_argument("--k", type=float, default=_CONFIG.params.k, help="rear-steer gain")


def _add_config_arg(p, flag, name, **kwargs):
    """An option that sets the PipelineConfig field name, with its default."""
    p.add_argument(flag, dest=name, default=getattr(_CONFIG, name), **kwargs)


def cmd_plan(args):
    m = _map_from_args(args)
    tree = rrt_plan(
        m,
        step=args.rrt_step,
        goal_bias=args.rrt_goal_bias,
        max_iters=args.rrt_max_iters,
        seed=args.seed,
        margin=args.margin,
    )
    path = extract_path(tree)
    dump_json({"points": [list(p) for p in path]}, args.out)
    print(f"planned {len(path)} waypoints ({len(tree.nodes)} tree nodes)")


def cmd_spline(args):
    doc = load_json_document(args.path)
    with decoding("path", doc):
        points = [_point(p) for p in doc["points"]]
    params = _car_params(args)
    if args.map:
        obstacle_map = load_map(args.map)
        points = smooth_path(
            points, obstacle_map, seed=args.seed, passes=args.smoothing_passes, margin=args.margin
        )
    spline = fit_spline(
        points,
        args.sections,
        total_time=args.total_time,
        samples_per_section=args.samples_per_section,
        initial_heading=args.initial_heading,
        branch=args.branch,
        params=params,
    )
    dump_json(spline, args.out)
    print(f"fitted {spline.n_sections} sections over {spline.total_time:g} time units")


def cmd_invert(args):
    from fliess.realization import generating_series

    # the pipeline's rule for the two degrees, before any section runs
    degrees = dict(inversion_degree=args.inversion_degree, series_degree=args.series_degree)
    PipelineConfig(**degrees).validate()
    spline = load_spline(args.spline)
    params = _car_params(args)
    out_sections = []
    for section in spline.sections:
        realization = augmented_realization(section.init, params)
        c = generating_series(realization, args.series_degree)
        c_u = left_invert(c, section.taylor_output(), args.inversion_degree)
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
            "degree": args.inversion_degree,
            "params": {"L": params.length, "k": params.k},
            "sections": out_sections,
        },
        args.out,
    )
    print(f"inverted {len(out_sections)} sections at degree {args.inversion_degree}")


def cmd_simulate(args):
    if args.rk4_steps < 1:
        raise MapFormatError("need at least one RK4 step per section")
    doc = load_json_document(args.inputs)
    with decoding("inputs", doc):
        params = CarParams(length=doc["params"]["L"], k=doc["params"]["k"])
        sections = []
        for entry in doc["sections"]:
            init = SectionInit(**{k: float(v) for k, v in entry["init"].items()})
            duration = float(entry["duration"])
            u = TaylorOutput([entry["steering_rate"], entry["speed_rate"]])
            sections.append((augmented_realization(init, params), u, duration))
        if not sections:
            raise MapFormatError("malformed inputs document: no sections")
    pieces = [rk4_simulate(r, u, duration, args.rk4_steps) for r, u, duration in sections]
    combined = Trajectory.concat(pieces)
    combined.to_csv(args.out)
    print(f"simulated {len(sections)} sections, {combined.times.size} samples")


def cmd_pipeline(args):
    m = _map_from_args(args)
    fields = [f.name for f in dataclasses.fields(PipelineConfig) if f.name != "params"]
    cfg = PipelineConfig(params=_car_params(args), **{name: getattr(args, name) for name in fields})
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


_KIND = {Series: "scalar", VectorSeries: "vector", MatrixSeries: "matrix"}

# (--in, --in2) operand kinds each operation accepts; None where --in2
# holds no series
_OPERANDS = {
    "shuffle": {
        ("scalar", "scalar"),
        ("scalar", "vector"),
        ("vector", "scalar"),
        ("matrix", "matrix"),
        ("matrix", "vector"),
    },
    "compose": {("scalar", "vector"), ("vector", "vector")},
    "ginverse": {("scalar", None), ("vector", None)},
    "shinverse": {("scalar", None), ("matrix", None)},
    "invert-op": {("scalar", None), ("vector", None)},
}


def _check_operands(op, a, b):
    kinds = (_KIND[type(a)], None if b is None else _KIND[type(b)])
    if kinds not in _OPERANDS[op]:
        shown = kinds[0] if b is None else f"{kinds[0]} and {kinds[1]}"
        raise MapFormatError(f"series {op} does not accept {shown} operands")


def cmd_series(args):
    op = args.op
    if op in ("shuffle", "compose", "invert-op") and not args.infile2:
        raise MapFormatError(f"series {op} needs --in2")
    a = _load_series_arg(args.infile)
    b = _load_series_arg(args.infile2) if op in ("shuffle", "compose") else None
    _check_operands(op, a, b)
    if op == "shuffle":
        result = shuffle(a, b, args.degree)
    elif op == "compose":
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
    _add_config_arg(p, "--step", "rrt_step", type=float)
    _add_config_arg(p, "--goal-bias", "rrt_goal_bias", type=float)
    _add_config_arg(p, "--max-iters", "rrt_max_iters", type=int)
    _add_config_arg(p, "--margin", "margin", type=float)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("spline", help="smooth a path and fit sectioned cubics")
    p.add_argument("--path", required=True, help="path JSON with a points array")
    _add_config_arg(p, "--sections", "sections", type=int)
    _add_config_arg(p, "--total-time", "total_time", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--map", help="enables collision-checked shortcut smoothing")
    p.add_argument("--seed", type=int, default=0)
    _add_config_arg(p, "--passes", "smoothing_passes", type=int)
    _add_config_arg(p, "--margin", "margin", type=float)
    _add_config_arg(p, "--samples", "samples_per_section", type=int, help="fit samples per section")
    _add_config_arg(p, "--initial-heading", "initial_heading", type=float)
    _add_config_arg(p, "--branch", "branch", choices=("auto", "positive", "negative"))
    _add_car_args(p)
    p.set_defaults(func=cmd_spline)

    p = sub.add_parser("invert", help="per-section input synthesis from a spline")
    p.add_argument("--spline", required=True)
    _add_config_arg(p, "--degree", "inversion_degree", type=int)
    _add_config_arg(p, "--series-degree", "series_degree", type=int)
    p.add_argument("--out", required=True)
    _add_car_args(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("simulate", help="integrate synthesized inputs section by section")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    _add_config_arg(p, "--steps", "rk4_steps", type=int, help="RK4 steps per section")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="full chain: plan, fit, invert, simulate, report")
    p.add_argument("--map", help="map JSON (bundled demo map when omitted)")
    _add_config_arg(p, "--seed", "seed", type=int)
    p.add_argument("--outdir", required=True)
    _add_config_arg(p, "--sections", "sections", type=int)
    _add_config_arg(p, "--total-time", "total_time", type=float)
    _add_config_arg(p, "--series-degree", "series_degree", type=int)
    _add_config_arg(p, "--inversion-degree", "inversion_degree", type=int)
    _add_config_arg(p, "--steps", "rk4_steps", type=int)
    _add_config_arg(p, "--handoff", "handoff", choices=("measured", "planned"))
    _add_config_arg(p, "--branch", "branch", choices=("auto", "positive", "negative"))
    _add_config_arg(p, "--step", "rrt_step", type=float)
    _add_config_arg(p, "--goal-bias", "rrt_goal_bias", type=float)
    _add_config_arg(p, "--max-iters", "rrt_max_iters", type=int)
    _add_config_arg(p, "--passes", "smoothing_passes", type=int)
    _add_config_arg(p, "--margin", "margin", type=float)
    _add_config_arg(p, "--samples", "samples_per_section", type=int)
    _add_config_arg(p, "--initial-heading", "initial_heading", type=float)
    _add_config_arg(p, "--arrival-tol", "arrival_tol", type=float)
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
