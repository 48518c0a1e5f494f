"""The benchmark workloads and their correctness checks.

Each workload has three parts:

* ``setup(seed, size)`` builds the inputs (map, plan and spline) and
  returns them in a dict.  ``setup_s`` times this.
* ``run_pass(inputs, pass_no)`` is a generator.  It drives the public
  API of ``fliess`` and yields one ``Item`` per unit of work; the runner
  times the interval up to each yield.  A pass always holds the same
  work, so runs that do a different number of passes stay comparable.
* ``check(inputs, item)`` runs outside the timed region, after the
  item's pass, and returns how many of the item's operations failed
  its correctness check.

Functions of ``fliess`` are looked up on the module at call time (never
bound with ``from fliess import ...``), so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import fliess

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")  # ignored by git

# Input coefficients may differ from the recorded reference by
# re-associated floating-point arithmetic (a drift-only left inversion
# agrees with the general one to about 1.3e-10 relative), but not by a
# wrong coefficient.  Each coefficient must lie within
# COEFF_RTOL * |reference| + COEFF_ATOL_SCALE * (the largest |reference|
# of the same channel and order over the workload's recorded sections).
# The second term sets the physical scale of each order: nearly straight
# sections have coefficients that are many orders below it.
COEFF_RTOL = 1e-8
COEFF_ATOL_SCALE = 1e-9

# Planner seeds on which the shallow pipeline passes its own gates
# (collision-free, arrived, max section rms below 0.1).
PIPELINE_SEEDS = (1, 2, 3, 7, 42)
MAX_SECTION_RMS = 0.1

# Rear-steer gains for the sweep: a fixed grid, so every value has a
# recorded reference.  Each run draws distinct values from it.
K_GRID = tuple(-0.95 + 0.5 * i / 511 for i in range(512))

# Start state (z1, z2, z3) of section 3 of the north-star run, taken
# from the measured handoff after sections 0-2.  The heading differs
# from the spline's, so the matched steering angle z4 is nonzero and
# every coefficient depends on k.
SWEEP_SECTION = 3
SWEEP_START = (-1.1812785090987319, 8.945200906525884, -1.0493522405829385)

SIZES = {
    "full": {
        "invert_deep": {"sections": 4},
        "pipeline_shallow": {"pipelines": len(PIPELINE_SEEDS)},
        "param_sweep": {"gains": 450},
        "setup_probes": 5,
    },
    "tiny": {
        "invert_deep": {"sections": 1},
        "pipeline_shallow": {"pipelines": 1},
        "param_sweep": {"gains": 4},
        "setup_probes": 1,
    },
}


@dataclass
class Item:
    """One unit of timed work: its output, or the exception it raised."""

    key: object
    output: object = None
    error: BaseException = None
    n: int = 1  # items this yield stands for (a pipeline run is 50 sections)


_REFERENCE = None


def reference():
    global _REFERENCE
    if _REFERENCE is None:
        with open(REFERENCE_PATH) as fh:
            _REFERENCE = json.load(fh)
    return _REFERENCE


def order_scale(ref_pairs):
    """Largest |coefficient| per channel and order, shape (2, orders)."""
    return np.max(np.abs(np.asarray(ref_pairs, dtype=float)), axis=0)


def section_matches(report, ref_pair, scale):
    """True when both input channels lie within tolerance of the reference."""
    got = np.array([report.steering_rate_coeffs, report.speed_rate_coeffs], dtype=float)
    want = np.asarray(ref_pair, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got - want) <= COEFF_RTOL * np.abs(want) + COEFF_ATOL_SCALE * scale))


# ---------------------------------------------------------------------------
# invert_deep: the first sections of the north-star run


def north_star_spline():
    """The default 50-section spline on the bundled map, as run_pipeline fits it."""
    cfg = fliess.PipelineConfig()
    obstacle_map = fliess.bundled_map()
    tree = fliess.rrt_plan(
        obstacle_map,
        step=cfg.rrt_step,
        goal_bias=cfg.rrt_goal_bias,
        max_iters=cfg.rrt_max_iters,
        seed=cfg.seed,
        margin=cfg.margin,
    )
    smoothed = fliess.smooth_path(
        fliess.extract_path(tree),
        obstacle_map,
        seed=cfg.seed + 1,
        passes=cfg.smoothing_passes,
        margin=cfg.margin,
    )
    return fliess.fit_spline(
        smoothed,
        cfg.sections,
        total_time=cfg.total_time,
        samples_per_section=cfg.samples_per_section,
        initial_heading=cfg.initial_heading,
        branch=cfg.branch,
        params=cfg.params,
    )


def setup_invert_deep(seed, size):
    # The inputs do not depend on the seed: the reports must equal the
    # first reports of the north-star run, which plans with seed 42.
    spline = north_star_spline()
    return {
        "cfg": fliess.PipelineConfig(),
        "spline": fliess.PathSpline(tuple(spline.sections[: size["sections"]])),
    }


def run_invert_deep(inputs, pass_no):
    """Track the first sections with measured handoff; one item per pass."""
    spline = inputs["spline"]
    try:
        reports = fliess.track_spline(spline, inputs["cfg"])
    except fliess.FliessError as exc:
        yield Item(key="sections", error=exc, n=spline.n_sections)
        return
    yield Item(key="sections", output=reports, n=spline.n_sections)


def check_invert_deep(inputs, item):
    """Every section against the reference; a missing section fails too."""
    ref = reference()["invert_deep"]
    scale = order_scale(ref)
    if len(item.output) != item.n:
        return item.n
    return sum(1 for r in item.output if not section_matches(r, ref[r.index], scale))


# ---------------------------------------------------------------------------
# pipeline_shallow: the whole chain at series degree 6, inversion degree 4


def setup_pipeline_shallow(seed, size):
    # The seed sets the order of the planner seeds within a pass.
    order = np.random.default_rng(seed).permutation(len(PIPELINE_SEEDS))
    seeds = [PIPELINE_SEEDS[i] for i in order[: size["pipelines"]]]
    return {
        "map": fliess.bundled_map(),
        "configs": [
            fliess.PipelineConfig(series_degree=6, inversion_degree=4, seed=s) for s in seeds
        ],
        "tmp_root": os.path.join(OUT_DIR, "artifacts"),
        "outdirs": [],
    }


def run_pipeline_shallow(inputs, pass_no):
    os.makedirs(inputs["tmp_root"], exist_ok=True)
    for cfg in inputs["configs"]:
        outdir = tempfile.mkdtemp(prefix=f"pipeline-{cfg.seed}-", dir=inputs["tmp_root"])
        inputs["outdirs"].append(outdir)
        try:
            report = fliess.run_pipeline(inputs["map"], cfg, outdir=outdir)
        except fliess.FliessError as exc:
            yield Item(key=(cfg.seed, outdir), error=exc, n=cfg.sections)
            continue
        yield Item(key=(cfg.seed, outdir), output=report, n=cfg.sections)


def _artifacts_written(outdir):
    names = ("report.json", "traj.csv", "overlay.svg")
    return all(
        os.path.isfile(os.path.join(outdir, n)) and os.path.getsize(os.path.join(outdir, n)) > 0
        for n in names
    )


def check_pipeline_shallow(inputs, item):
    """The pipeline's own gates, then every section against the reference."""
    planner_seed, outdir = item.key
    rep = item.output
    if not (
        rep.collision_free
        and rep.arrived
        and rep.max_section_rms < MAX_SECTION_RMS
        and len(rep.sections) == item.n
        and _artifacts_written(outdir)
    ):
        return item.n
    refs = reference()["pipeline_shallow"]
    scale = order_scale([pair for sections in refs.values() for pair in sections])
    ref = refs[str(planner_seed)]
    return sum(1 for s in rep.sections if not section_matches(s, ref[s.index], scale))


def cleanup_pipeline_shallow(inputs):
    for outdir in inputs["outdirs"]:
        shutil.rmtree(outdir, ignore_errors=True)
    inputs["outdirs"].clear()


# ---------------------------------------------------------------------------
# param_sweep: one section under many rear-steer gains


def setup_param_sweep(seed, size):
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(K_GRID), size=size["gains"], replace=False)
    section = north_star_spline().sections[SWEEP_SECTION]
    base = fliess.PipelineConfig(series_degree=6, inversion_degree=4)
    return {
        "section": section,
        "configs": [
            (int(i), dataclasses.replace(base, params=fliess.CarParams(k=K_GRID[i]))) for i in picks
        ],
    }


def run_param_sweep(inputs, pass_no):
    section = inputs["section"]
    z1, z2, z3 = SWEEP_START
    slope = (section.poly[0][1], section.poly[1][1])
    for index, cfg in inputs["configs"]:
        try:
            z4, z5 = fliess.solve_first_order_match(slope, z3, branch=cfg.branch, params=cfg.params)
            init = fliess.SectionInit(z1=z1, z2=z2, z3=z3, z4=z4, z5=z5)
            report = fliess.run_section(section, init, cfg)
        except fliess.FliessError as exc:
            yield Item(key=index, error=exc)
            continue
        yield Item(key=index, output=report)


def check_param_sweep(inputs, item):
    ref = reference()["param_sweep"]
    return 0 if section_matches(item.output, ref[item.key], order_scale(ref)) else item.n


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    check: object
    single_pass: bool = False  # the sweep must never repeat a gain in one process
    cleanup: object = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("invert_deep", setup_invert_deep, run_invert_deep, check_invert_deep),
        Workload(
            "pipeline_shallow",
            setup_pipeline_shallow,
            run_pipeline_shallow,
            check_pipeline_shallow,
            cleanup=cleanup_pipeline_shallow,
        ),
        Workload("param_sweep", setup_param_sweep, run_param_sweep, check_param_sweep, single_pass=True),
    )
}
