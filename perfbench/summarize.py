"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/summarize.py --seeds 0-9 --traced 3 \
        --out perfbench/baseline.json

``--workloads W --merge`` re-measures one workload into an existing file;
``--traced-only`` with ``--merge`` re-measures only its traced runs.

For each workload, runs ``run.py`` untraced once per seed, then traced
(``--paired``: one untraced and one traced body in the same process) on the
first ``--traced`` seeds. Reports, per end-to-end metric, the median, the
quartiles and their distance as a share of the median (the spread, checked
against the metric's bound); the per-layer medians of the traced runs; and,
per pair, the tracing overhead (traced minus untraced body) and how far the
layers' self times, less the estimated overhead, are from the untraced
body.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd.append("--paired")
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    wall = time.perf_counter() - t0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json") as f:
        full = json.load(f)
    print(f"{workload} seed={seed} trace={trace} correct={line['correct']} "
          f"failed={line['failed']}/{line['attempted']} wall={wall:.1f}s", flush=True)
    return {"seed": seed, "process_wall_s": wall, "line": line, "result": full}


def quartiles(values) -> dict:
    values = [float(v) for v in values]
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else float("nan"),
            "values": values}


def summarise(spec: dict, runs: list[dict]) -> dict:
    out = {"runs": [{"seed": r["seed"], "correct": r["line"]["correct"],
                     "attempted": r["line"]["attempted"],
                     "failed": r["line"]["failed"],
                     "process_wall_s": r["process_wall_s"],
                     "end_to_end": {k: v[0] for k, v in r["result"]["end_to_end"].items()},
                     "workload_metrics": {k: v[0] for k, v in
                                          r["result"]["workload_metrics"].items()},
                     "setup_parts_s": r["result"]["setup_parts_s"],
                     "info": r["result"]["info"]} for r in runs]}
    e2e = {}
    for m in spec["end_to_end"]:
        q = quartiles(r["line"]["metrics"][m["name"]]["value"] for r in runs)
        q["bound"] = m["bound"]
        q["within_bound"] = m["name"] == "setup_s" or q["spread"] <= m["bound"]
        q["within_third_of_bound"] = q["spread"] <= m["bound"] / 3.0
        e2e[m["name"]] = q
    out["end_to_end"] = e2e
    names = runs[0]["result"]["workload_metrics"]
    out["workload_metrics"] = {
        k: {**quartiles(r["result"]["workload_metrics"][k][0] for r in runs),
            "unit": names[k][1], "samples_per_run": names[k][2]} for k in names}
    return out


def summarise_traced(traced: list[dict]) -> dict:
    layer_keys = traced[0]["result"]["per_layer"]
    per_layer = {k: statistics.median(r["result"]["per_layer"][k] for r in traced)
                 for k in layer_keys}
    pairs = []
    for r in traced:
        pl = r["result"]["per_layer"]
        untraced = r["result"]["end_to_end"]["run_s"][0]
        layers = sum(pl[f"{layer}.self_s"] for layer in LAYERS) + pl["bench.self_s"]
        pairs.append({
            "seed": r["seed"], "run_s_untraced": untraced,
            "run_s_traced": pl["run_s_traced"],
            "self_s_sum_plus_bench": layers,
            "overhead_paired_s": pl["trace.overhead_paired_s"],
            "overhead_est_s": pl["trace.overhead_est_s"],
            # how far the self times, less the estimated overhead, are
            # from the untraced body run next to the traced one
            "unaccounted_share": (layers - pl["trace.overhead_est_s"] - untraced)
            / untraced})
    return {
        "seeds": [r["seed"] for r in traced],
        "correct": [r["line"]["correct"] for r in traced],
        "per_layer": per_layer,
        "layer_self_s": {layer: per_layer[f"{layer}.self_s"] for layer in LAYERS},
        "pairs": pairs,
        "unaccounted_share_median": statistics.median(p["unaccounted_share"]
                                                      for p in pairs),
    }


def roadmap_check(result: dict) -> dict:
    """The ROADMAP baseline, measured again with this harness."""
    pipe = result["workloads"].get("pipeline")
    if not pipe:
        return {}
    timings = [r["info"]["timings_time_time"] for r in pipe["runs"]]
    stage = {k: statistics.median(t[k] for t in timings) for k in timings[0]}
    seed0 = [r["info"] for r in pipe["runs"] if r["seed"] == 0]
    out = {"demo_digest_seed0": {
               "measured": seed0[0]["digest"] if seed0 else None,
               "matches_recorded": seed0[0]["digest_matches_recorded"] if seed0 else None},
           "demo_s": {"measured": pipe["end_to_end"]["run_s"]["median"],
                      "roadmap": "56-62"},
           "stage_s_time_time": {"measured": stage,
                                 "roadmap": {"scene": "~19", "vsg_fit": "17-19",
                                             "insertion": "15-20"}}}
    if "traced" in pipe:
        pl = pipe["traced"]["per_layer"]
        out["composite_rays_rays_per_s_32_samples"] = {
            "measured": pl["volume.composite_rays.rays_per_s"], "roadmap": "26k-32k"}
        out["vsg_objective_ms_per_call_512_rays"] = {
            "measured": pl["volume.vsg_fit_objective.ms_per_call"], "roadmap": "~22"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--traced", type=int, default=3,
                        help="traced runs, on the first seeds")
    parser.add_argument("--out", default=None)
    parser.add_argument("--merge", action="store_true",
                        help="replace only the measured workloads in --out")
    parser.add_argument("--traced-only", action="store_true",
                        help="with --merge: re-measure only the traced runs")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    result = {"benchmark": spec, "seeds": seeds, "workloads": {}}
    if args.merge:
        result = json.loads(Path(args.out).read_text())
        result["benchmark"] = spec
    for workload in names:
        entry = result["workloads"].setdefault(workload, {})
        if not args.traced_only:
            runs = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
            entry.update(summarise(spec, runs))
            result["provenance"] = runs[0]["result"]["provenance"]
        traced = [run_once(workload, s, spec["run_seconds"], 1)
                  for s in seeds[:args.traced]]
        if traced:
            entry["traced"] = summarise_traced(traced)
        for name, q in entry["end_to_end"].items():
            print(f"  {workload:9s} {name:12s} median={q['median']:.6g} "
                  f"spread={q['spread']:.4f} bound={q['bound']}", flush=True)
    result["roadmap_check"] = roadmap_check(result)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
