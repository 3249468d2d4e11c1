"""voxlight benchmark runner.

    python3 perfbench/run.py --workload {pipeline,fit,render} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One process; BLAS is pinned to one thread.
Set-up runs several times and its median is reported; then timed bodies
run back to back until ``--seconds`` have passed (at least one). Each
body's outputs are checked after its timing stops. With ``--trace 0`` the
last line of stdout is the JSON result with the end-to-end metrics; with
``--trace 1`` the public functions of every layer are wrapped in spans and
the last line carries the per-layer metrics (``--paired`` alternates
untraced and traced bodies, to measure the tracing overhead). The full
result (named workload metrics, provenance, per-layer report) goes to
``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _import_seconds(env: dict) -> float:
    """Time to import voxlight (numpy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import voxlight; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    from workloads import RECORDED_DEMO_DIGEST
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except Exception as exc:  # numpy without build metadata
        blas = {"error": repr(exc)}
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "git_commit": _git_commit(), "seed": seed,
            "demo_digest_seed0_recorded": RECORDED_DEMO_DIGEST,
            "platform": platform.platform()}


def named_metrics(workload: str, ops, quality: dict) -> dict:
    """The workload's own metrics, by name: {name: (value, unit, samples)}."""
    from workloads import percentile
    out = {}
    attempted = len(ops.kinds)
    out["fail_ratio"] = (len(ops.failures) / attempted, "ratio", attempted)
    kinds = {"fit": (("sg_fit_ms", "sg_fit"),),
             "render": (("env_probe_ms", "env_probe"),)}.get(workload, ())
    for name, kind in kinds:
        lat = ops.latencies(kind)
        out[f"{name}.p50"] = (1e3 * percentile(lat, 50), "ms", len(lat))
        out[f"{name}.p90"] = (1e3 * percentile(lat, 90), "ms", len(lat))
    singles = {"fit": (("vsg_fit_s", "vsg_fit"),),
               "render": (("insert_mirror_s", "insert_mirror"),
                          ("insert_diffuse_s", "insert_diffuse"))}.get(workload, ())
    for name, kind in singles:
        lat = ops.latencies(kind)
        out[name] = (percentile(lat, 50), "s", len(lat))
    for key, value in quality.items():
        if key != "info":
            out[key] = (value, "1", 1)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        paired: bool = False) -> dict:
    """One benchmark run. With ``paired``, bodies alternate untraced and
    traced, so the tracing overhead is measured against the untraced body
    next to it instead of against another process."""
    import workloads
    import spans

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    import_s = statistics.median(_import_seconds(env) for _ in range(SETUP_REPEATS))

    job = workloads.WORKLOADS[workload]()
    dirs = []
    build_s = []
    try:
        for _ in range(SETUP_REPEATS):
            dirs.append(workloads.make_workdir(OUT / "tmp"))
            t0 = time.perf_counter()
            inputs = job.setup(seed, dirs[-1])
            build_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_s)

        ops = workloads.Ops()
        bodies, traced_bodies, reports = [], [], []
        quality = {}
        started = time.perf_counter()
        while (not bodies or time.perf_counter() - started < seconds
               or (paired and len(traced_bodies) < len(bodies))):
            # paired runs trace every second body
            traced_now = trace and (not paired or len(bodies) > len(traced_bodies))
            tracer = spans.Tracer() if traced_now else None
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                outputs = job.body(inputs, ops)
            finally:
                (traced_bodies if paired and tracer else bodies).append(time.perf_counter() - t0)
                if tracer:
                    tracer.uninstall()
            if tracer:
                last = tracer
                reports.append(spans.layer_report(tracer.spans(), (traced_bodies or bodies)[-1]))
            quality = job.check(inputs, outputs, ops)
    finally:
        for d in dirs:
            workloads.remove_workdir(d)

    p90 = workloads.percentile(ops.seconds, 90)
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "seconds": seconds, "bodies": len(bodies), "body_s": bodies,
        "attempted": len(ops.kinds), "failed": len(ops.failures),
        "failures": {f"{i}:{ops.kinds[i]}": m for i, m in sorted(ops.failures.items())},
        "end_to_end": {
            "setup_s": (setup_s, "s", SETUP_REPEATS),
            "run_s": (statistics.median(bodies), "s", len(bodies)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
            "op_ms.p90": (1e3 * p90, "ms", len(ops.seconds)),
        },
        "setup_parts_s": {"import_s": import_s, "build_s": build_s},
        "workload_metrics": named_metrics(workload, ops, quality),
        "info": quality.get("info", {}),
        "provenance": provenance(seed),
    }
    if trace:
        # per-layer metrics are medians over the bodies, like run_s
        report = {k: statistics.median(r[k] for r in reports) for k in reports[0]}
        cost = spans.wrapper_cost_s()
        report["trace.wrapper_cost_us"] = cost * 1e6
        report["trace.overhead_est_s"] = cost * report["trace.spans"]
        report["run_s_traced"] = statistics.median(traced_bodies or bodies)
        if paired:
            report["trace.overhead_paired_s"] = report["run_s_traced"] - statistics.median(bodies)
            result["traced_body_s"] = traced_bodies
        result["per_layer"] = report
        OUT.mkdir(parents=True, exist_ok=True)
        last.write(OUT / f"{workload}-seed{seed}.spans.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paired", action="store_true",
                        help="with --trace 1: alternate untraced and traced bodies")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voxlight" / "__init__.py").is_file():
        print(f"perfbench: no voxlight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.paired and bool(args.trace))

    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as f:
        json.dump(result, f, indent=1, default=float)

    if args.trace:
        print("traced run: the timings below include the tracing overhead")
    for key, (value, unit, n) in {**result["end_to_end"],
                                   **result["workload_metrics"]}.items():
        print(f"{key:24s} {value:14.6g} {unit:6s} n={n}")
    for key, messages in result["failures"].items():
        print(f"FAILED {key}: {'; '.join(messages)}")

    if args.trace:
        report = result["per_layer"]
        metrics = {m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]][0],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
