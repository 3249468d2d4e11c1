"""Span tracing of voxlight's public functions, and the per-layer report.

A traced run rebinds each listed function, in every ``voxlight.*`` module
namespace that holds it, to a wrapper that records one span per call: its
name, start, end and parent span. Calls that reach a function through an
imported name (``insertion.composite_rays``, ``pipeline.sg_fit``) are caught
as well. Work counts (rays, samples, pixels, iterations) are taken from the
arguments and results at the same boundary. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from functools import wraps

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_env_maps(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    points = _arg(args, kwargs, 1, "points")
    h, w = points.shape[:2]
    return {"sub_rays": h * w * spec.env_height * spec.env_width
            * spec.env_supersample ** 2}


def _count_pixels(args, kwargs, result):
    points = _arg(args, kwargs, 1, "points")
    return {"pixels": points.shape[0] * points.shape[1]}


def _count_rays(args, kwargs, result):
    rays = int(_arg(args, kwargs, 1, "origins").shape[0])
    return {"rays": rays, "samples": rays * int(_arg(args, kwargs, 4, "n_samples"))}


def _count_fit(result):
    return {"iters": result.report.iterations,
            "accepted": result.report.accepted_steps}


def _count_file_bytes(args, kwargs, result):
    from pathlib import Path
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


# Functions wrapped per layer, with the counter read at each boundary. The
# layers are the package modules; ``cli`` only parses arguments and is not
# benchmarked.
TRACED = {
    "scene": {"generate_scene": None, "per_pixel_env_maps": _count_env_maps,
              "render_images": _count_pixels},
    "sg": {"sg_fit": lambda a, k, r: _count_fit(r), "sg_fit_objective": None,
           "texel_directions": None},
    "volume": {"vsg_fit": lambda a, k, r: _count_fit(r),
               "vsg_fit_objective": None, "composite_rays": _count_rays,
               "extract_env_map": None},
    "optim": {"minimize_monotone": None},
    "brdf": {"rerender_pixel": None, "render_specular": None,
             "render_diffuse": None, "spec_feature_inputs": None},
    "insertion": {"insert_object": None, "shade_sphere_pixel": None},
    "geometry": {"depth_to_normal": None, "bilinear_sample": None,
                 "multiview_weights": None, "projection_error": None},
    "aggregation": {"aggregate": None},
    "metrics": {"stage_losses": None, "si_log_mse": None, "si_mse": None,
                "masked_l1_angular": None},
    "surface": {"build_surface_volume": None},
    "io": {"load_scene": None, "load_volume": None,
           "read_pfm": _count_file_bytes, "write_pfm": _count_file_bytes},
    "pipeline": {"pipeline_demo": None},
}
LAYERS = tuple(TRACED)
# The keys each counter reports; a function never called reports zeros.
COUNTED = {"scene.per_pixel_env_maps": ("sub_rays",),
           "scene.render_images": ("pixels",),
           "sg.sg_fit": ("iters", "accepted"), "volume.vsg_fit": ("iters", "accepted"),
           "volume.composite_rays": ("rays", "samples"),
           "io.read_pfm": ("bytes",), "io.write_pfm": ("bytes",)}


class Tracer:
    """Records spans of the wrapped functions between ``install`` and
    ``uninstall``. Span ``i`` is (names[i], parents[i], starts[i], ends[i])
    with parent -1 for a root span; ``counts[i]`` holds its work counts."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[dict | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.counts.append(None)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.starts[sid] = start
                tracer.ends[sid] = end
            if counter is not None:
                tracer.counts[sid] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every listed function in every loaded voxlight module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "voxlight" or n.startswith("voxlight."))]
        for layer, functions in TRACED.items():
            home = sys.modules[f"voxlight.{layer}"]
            for fname, counter in functions.items():
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def spans(self) -> list[tuple[str, int, float, float, dict | None]]:
        return list(zip(self.names, self.parents, self.starts, self.ends,
                        self.counts))

    def write(self, path):
        """Write the spans as one JSON document."""
        spans = self.spans()
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "fields": ["name", "parent", "start_s", "end_s", "counts"],
               "spans": [[index[n], p, s, e, c] for n, p, s, e, c in spans]}
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    child spans. ``spans`` is a list of (name, parent, start, end, ...)."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append((span[2], span[3]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children[sid]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_report(spans, body_s: float) -> dict[str, float]:
    """Per-function and per-layer metrics from one traced body.

    For each function ``<layer>.<fn>``: ``calls``, ``s`` (time inside its
    outermost calls), ``self_s`` and its summed work counts. Per layer:
    ``<layer>.self_s``. ``bench.self_s`` is the body's time outside every
    span, so the self times sum to ``body_s``.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    child_rays = 0
    root_s = 0.0
    for sid, (name, parent, start, end, cnt) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[sid]
        if parent < 0:
            root_s += end - start
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][1]
        if name not in ancestors:
            total[name] += end - start
        if cnt:
            for key, value in cnt.items():
                counts[name][key] += value
            if name == "volume.composite_rays" and "insertion.insert_object" in ancestors:
                child_rays += cnt["rays"]

    out: dict[str, float] = {}
    for layer, functions in TRACED.items():
        layer_self = 0.0
        for fname in functions:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
            layer_self += own[name]
            for key in COUNTED.get(name, ()):
                out[f"{name}.{key}"] = counts[name][key]
        out[f"{layer}.self_s"] = layer_self

    for name in ("sg.sg_fit", "volume.vsg_fit"):
        iters = out[f"{name}.iters"]
        out[f"{name}.accept_ratio"] = out[f"{name}.accepted"] / iters if iters else 0.0
    obj = "volume.vsg_fit_objective"
    out[f"{obj}.ms_per_call"] = (1e3 * out[f"{obj}.s"] / out[f"{obj}.calls"]
                                 if out[f"{obj}.calls"] else 0.0)
    cr = "volume.composite_rays"
    out[f"{cr}.rays_per_s"] = out[f"{cr}.rays"] / out[f"{cr}.s"] if out[f"{cr}.s"] else 0.0
    # computed, not measured: one (R, N, 8, 8) float64 gather per batch
    out[f"{cr}.gather_mb"] = out[f"{cr}.samples"] * 8 * 8 * 8 / 1e6
    out["insertion.insert_object.child_rays"] = child_rays
    out["bench.self_s"] = body_s - root_s
    out["trace.spans"] = len(spans)
    return out


def wrapper_cost_s(repeats: int = 5, calls: int = 20000) -> float:
    """Median extra time one traced call costs over a plain call, measured
    on a no-op function."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - t0 - plain) / calls)
    return max(statistics.median(costs), 0.0)
