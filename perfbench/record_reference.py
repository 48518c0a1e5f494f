#!/usr/bin/env python3
"""Record the input coefficients that the benchmark's checks compare against.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

and commit the rewritten ``perfbench/reference.json``.  The recorded
values are the program's own outputs, so record them only from code
whose results are trusted (the acceptance tests pass).  The file holds
the steering- and speed-rate coefficients of

* invert_deep: the first sections of the north-star run (degree 8/6),
  and the measured start state of the param_sweep section;
* pipeline_shallow: every section of the degree-6/4 pipeline for each
  gate-passing planner seed;
* param_sweep: the fixed section for every gain of the k grid.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

fliess = run.import_fliess()
import workloads  # noqa: E402


def pair(report):
    return [list(report.steering_rate_coeffs), list(report.speed_rate_coeffs)]


def main():
    doc = {}
    deep = workloads.setup_invert_deep(0, {"sections": workloads.SWEEP_SECTION + 1})
    (item,) = workloads.run_invert_deep(deep, 0)
    reports = item.output
    doc["invert_deep"] = [pair(r) for r in reports]
    start = reports[workloads.SWEEP_SECTION - 1].endpoint[:3]
    if tuple(start) != workloads.SWEEP_START:
        sys.exit(f"SWEEP_START in workloads.py should read {tuple(start)!r}")
    print("invert_deep done", flush=True)

    doc["pipeline_shallow"] = {}
    for seed in workloads.PIPELINE_SEEDS:
        cfg = fliess.PipelineConfig(series_degree=6, inversion_degree=4, seed=seed)
        rep = fliess.run_pipeline(fliess.bundled_map(), cfg)
        doc["pipeline_shallow"][str(seed)] = [pair(s) for s in rep.sections]
        print("pipeline seed", seed, "done", flush=True)

    sweep = workloads.setup_param_sweep(0, {"gains": len(workloads.K_GRID)})
    sweep["configs"].sort()
    doc["param_sweep"] = [pair(item.output) for item in workloads.run_param_sweep(sweep, 0)]
    print("param_sweep done", flush=True)

    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
