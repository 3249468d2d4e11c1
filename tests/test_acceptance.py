"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them all).
Tolerances are fixed here and match the package contracts.
"""

import math
import time

import numpy as np

from voxlight.aggregation import FeatureSet, aggregate, weighted_moments
from voxlight.brdf import render_diffuse
from voxlight.geometry import (depth_to_normal, multiview_weights,
                               projection_error)
from voxlight.metrics import entropy_reg, masked_l1_angular, masked_mse, si_mse
from voxlight.pipeline import DemoConfig, pipeline_demo
from voxlight.insertion import InsertedSphere, MirrorMaterial, insert_object
from voxlight.sg import (EnvMapGrid, Frame, SGEnvironment, SGFitOptions,
                         eval_env, rasterize_env, sg_fit,
                         sg_fit_objective, texel_directions)
from voxlight.volume import (Bounds, EnvTarget, Ray, VSGFitOptions,
                             VSGFitProblem, VSGVolume, _channel_table,
                             _front_to_back, _initial_params, _ray_stencil,
                             _trilinear, composite_ray, extract_env_map,
                             vsg_fit, vsg_fit_objective)

FRAME = Frame.from_normal([0.0, 0.0, 1.0])
BOUNDS = Bounds(lo=np.zeros(3), hi=np.full(3, 2.0))

# digest of pipeline_demo(DemoConfig()); the same with OpenBLAS at 1 or 2 threads
# and under its Haswell, SkylakeX and Zen kernels (OPENBLAS_CORETYPE), but
# not under Sandybridge (4361dc37…) or Prescott (3bbfce25…), whose BLAS products
# round differently; a failing pin names the kernel OpenBLAS runs (Zen's reads
# Haswell, Prescott's Katmai)
DEMO_DIGEST = "18e60d96ee9da171ae03fc0ee91bb2cfed1d84a4de45017f2664ffd744045d67"


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} failed: {name} {detail}"


def env_of(*lobes, visibility=None) -> SGEnvironment:
    """An SGEnvironment of (theta, phi, sharpness, (r, g, b)) lobes."""
    return SGEnvironment(*zip(*lobes), visibility=visibility)


def random_frame(rng) -> Frame:
    n = rng.normal(size=3)
    return Frame.from_normal(n / np.linalg.norm(n))


def test_01_furnace():
    t0 = time.time()
    albedo = np.array([0.6, 0.45, 0.3])
    radiance = 1.7
    env = EnvMapGrid(width=32, height=16, frame=FRAME,
                     texels=np.full((16, 32, 3), radiance))
    out = render_diffuse(albedo, env)
    elapsed = time.time() - t0
    rel = float(np.max(np.abs(out - albedo * radiance) / (albedo * radiance)))
    report(1, "diffuse furnace a*L within 1% at 32x16",
           rel <= 0.01 and elapsed < 1.0,
           f"rel={rel:.2e}, {elapsed:.3f}s")


def test_02_sg_identity_and_rasterize_agreement():
    # at its own axis a lobe reads eta: dot(axis, axis) - 1 is within 2 eps of
    # 0, so exp(lambda (dot - 1)) is within about 2 lambda eps of 1
    rng = np.random.default_rng(101)
    identity_ok = True
    eps = np.finfo(float).eps
    for _ in range(100):
        env = env_of((rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi * 0.999),
                      rng.uniform(0, 40), rng.uniform(0, 3, 3)))
        error = np.abs(eval_env(env, env.axes()[0]) - env.intensity[0])
        identity_ok &= bool(np.all(error <= (2.0 * env.sharp[0] + 1.0) * eps
                                   * env.intensity[0]))
    raster_ok = True
    for _ in range(100):
        lobes = [(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi * 0.999),
                  rng.uniform(0, 30), rng.uniform(0, 3, 3))
                 for _ in range(int(rng.integers(1, 5)))]
        vis = tuple(rng.uniform(0, 1, len(lobes)))
        env = env_of(*lobes, visibility=vis)
        frame = random_frame(rng)
        grid = rasterize_env(env, 4, 8, frame)
        dirs = texel_directions(4, 8, frame)
        for i in range(4):
            for j in range(8):
                raster_ok &= bool(np.array_equal(grid.texels[i, j],
                                                 eval_env(env, dirs[i, j])))
    report(2, "SG peak within (2 lambda + 1) eps of eta and rasterize/eval bitwise "
              "on 100 envs",
           identity_ok and raster_ok)


def test_03_compositing_conservation():
    rng = np.random.default_rng(102)
    ok = True
    worst = 0.0
    for trial in range(1000):
        if trial % 50 == 0:
            vox = np.empty((16, 16, 16, 7))
            vox[..., 0] = rng.uniform(0, 1, (16, 16, 16))
            vox[..., 1] = rng.uniform(0, math.pi, (16, 16, 16))
            vox[..., 2] = rng.uniform(-math.pi, 3.0, (16, 16, 16))
            vox[..., 3] = rng.uniform(0, 10, (16, 16, 16))
            vox[..., 4:7] = rng.uniform(0, 3, (16, 16, 16, 3))
            volume = VSGVolume(bounds=BOUNDS, voxels=vox)
        origin = rng.uniform(-0.5, 2.5, 3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        _, hit, stencil = _ray_stencil(volume, origin[None], d[None], 6.0, 32)
        if not hit[0]:
            continue
        alpha = np.minimum(_trilinear(_channel_table(volume), stencil)[0], 1.0)
        w = _front_to_back(alpha)[2]
        total = float(w.sum())
        worst = max(worst, total)
        ok &= bool(np.all(w >= 0.0) and np.all(w <= 1.0) and total <= 1.0 + 1e-9)

    # two-sample analytic case through a real volume: alpha = 0.5 twice
    vox = np.zeros((2, 1, 1, 7))
    vox[:, 0, 0, 0] = 0.5
    vox[0, 0, 0, 4:7] = (1.0, 2.0, 3.0)
    vox[1, 0, 0, 4:7] = (2.0, 0.5, 1.0)
    two = VSGVolume(bounds=Bounds(lo=np.zeros(3), hi=np.array([2.0, 1.0, 1.0])),
                    voxels=vox)
    ray = Ray(origin=[0.0, 0.5, 0.5], direction=[1.0, 0.0, 0.0], t_max=2.0)
    got = composite_ray(two, ray, 2)
    expected = 0.5 * np.array([1.0, 2.0, 3.0]) + 0.25 * np.array([2.0, 0.5, 1.0])
    analytic = float(np.max(np.abs(got - expected)))
    report(3, "compositing weights in [0,1], sum <= 1 on 1000 rays; "
              "two-sample case to 1e-12",
           ok and analytic <= 1e-12, f"max sum={worst:.6f}, dev={analytic:.1e}")


def test_04_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(103)
    dirs = texel_directions(8, 16, FRAME).reshape(-1, 3)
    target = rng.uniform(0, 2, (dirs.shape[0], 3))
    step = 1e-5
    worst_sg = 0.0

    def sg_objective(params):   # a batch of one fit
        values, grads = sg_fit_objective(params[None], np.log1p(target)[None], dirs[None])
        return values[0], grads[0]

    for _ in range(20):
        params = np.stack([
            rng.uniform(0.2, math.pi - 0.2, 3),
            rng.uniform(-math.pi, math.pi, 3),
            np.log(rng.uniform(0.5, 50.0, 3)),
            np.log(rng.uniform(0.2, 3.0, 3)),
            np.log(rng.uniform(0.2, 3.0, 3)),
            np.log(rng.uniform(0.2, 3.0, 3)),
        ], axis=-1).ravel()
        _, grad = sg_objective(params)
        fd = np.zeros_like(grad)
        for i in range(params.size):
            hi = params.copy(); hi[i] += step
            lo = params.copy(); lo[i] -= step
            fd[i] = (sg_objective(hi)[0] - sg_objective(lo)[0]) / (2 * step)
        worst_sg = max(worst_sg, np.linalg.norm(grad - fd)
                       / max(np.linalg.norm(fd), 1e-300))

    texels = rng.uniform(0, 3, (4, 8, 3))
    targets = [EnvTarget(point=np.array([0.8, 0.9, 0.3]), frame=FRAME,
                         grid=EnvMapGrid(width=8, height=4, frame=FRAME,
                                         texels=texels))]
    problem = VSGFitProblem(targets, (4, 4, 4), BOUNDS,
                            VSGFitOptions(n_samples=8))
    worst_vsg = 0.0
    for _ in range(20):
        params = _initial_params(problem) + rng.normal(0, 0.5, 448)
        _, grad = vsg_fit_objective(params, problem)
        fd = np.zeros_like(grad)
        for i in range(params.size):
            hi = params.copy(); hi[i] += step
            lo = params.copy(); lo[i] -= step
            fd[i] = (vsg_fit_objective(hi, problem)[0]
                     - vsg_fit_objective(lo, problem)[0]) / (2 * step)
        worst_vsg = max(worst_vsg, np.linalg.norm(grad - fd)
                        / max(np.linalg.norm(fd), 1e-300))
    elapsed = time.time() - t0
    report(4, "analytic gradients match central differences (rel <= 1e-3)",
           worst_sg <= 1e-3 and worst_vsg <= 1e-3 and elapsed < 30.0,
           f"sg={worst_sg:.1e}, vsg={worst_vsg:.1e}, {elapsed:.1f}s")


def test_05_sg_recovery():
    t0 = time.time()
    rng = np.random.default_rng(104)
    while True:
        env = env_of(*[(rng.uniform(0.3, 1.1),
                        -math.pi + (k + rng.uniform(0.3, 0.7)) * (2 * math.pi / 3),
                        rng.uniform(4.0, 12.0), rng.uniform(0.5, 3.0, 3))
                       for k in range(3)])
        axes = env.axes()
        dots = axes @ axes.T
        np.fill_diagonal(dots, -1.0)
        if np.max(dots) < math.cos(math.radians(60.0)):
            break
    target = rasterize_env(env, 16, 32, FRAME)
    result = sg_fit(target, 3, SGFitOptions(max_iters=2000))
    elapsed = time.time() - t0
    report(5, "3-lobe recovery g4 <= 1e-3 within 2000 iterations",
           result.report.final_objective <= 1e-3
           and result.report.iterations <= 2000 and elapsed < 60.0,
           f"g4={result.report.final_objective:.1e}, "
           f"iters={result.report.iterations}, {elapsed:.1f}s")


def test_06_vsg_recovery():
    from voxlight.metrics import si_log_mse
    t0 = time.time()
    vox = np.zeros((8, 8, 8, 7))
    vox[4, 4, 6, 0] = 1.0
    vox[4, 4, 6, 4:7] = (8.0, 6.0, 5.0)
    gt = VSGVolume(bounds=BOUNDS, voxels=vox)
    points = [np.array([0.6, 0.6, 0.15]), np.array([1.4, 0.6, 0.15]),
              np.array([0.6, 1.4, 0.15]), np.array([1.4, 1.4, 0.15])]
    targets = [EnvTarget(point=p, frame=FRAME,
                         grid=extract_env_map(gt, p, FRAME, 8, 16, 64))
               for p in points]
    result = vsg_fit(targets, (8, 8, 8), BOUNDS,
                     VSGFitOptions(max_iters=800, n_samples=64))
    total = sum(si_log_mse(t.grid.texels,
                           extract_env_map(result.volume, t.point, t.frame,
                                           8, 16, 64).texels)
                for t in targets)
    alpha = result.volume.voxels[..., 0]
    polar = float(np.mean(np.minimum(alpha, 1.0 - alpha)))
    elapsed = time.time() - t0
    report(6, "VSG single-emitter recovery g4 <= 1e-2, alpha polarized",
           total <= 1e-2 and polar <= 0.1 and elapsed < 300.0,
           f"sum g4={total:.1e}, polar={polar:.3f}, {elapsed:.1f}s")


def test_07_geometry():
    from voxlight.geometry import Camera
    cam = Camera(fx=60.0, fy=60.0, cx=39.5, cy=29.5, rotation=np.eye(3),
                 translation=np.zeros(3))
    jj = np.meshgrid(np.arange(80), np.arange(60))[0]
    worst_deg = 0.0
    for slope in (0.0, 0.2, -0.35):
        depth = 2.0 / (1.0 - slope * (jj - cam.cx) / cam.fx)
        normals, _ = depth_to_normal(depth, cam)
        expected = np.array([slope, 0.0, -1.0])
        expected /= np.linalg.norm(expected)
        dots = np.clip(normals @ expected, -1, 1)
        worst_deg = max(worst_deg, math.degrees(float(np.max(np.arccos(dots)))))

    exact_zero = projection_error(3.0, 2.0) == 0.0
    exp2 = abs(projection_error(math.exp(-2.0), 0.0) - 2.0) <= 1e-12
    capped = projection_error(2.0, 2.0) == 30.0

    w = multiview_weights([1.0, 1.0, 2.0])
    hand = bool(np.array_equal(w, [0.25, 0.25, 0.5]))
    rng = np.random.default_rng(105)
    sums_ok = all(abs(multiview_weights(rng.uniform(0, 5, 9)).sum() - 1.0) <= 1e-12
                  for _ in range(200))
    uniform = bool(np.allclose(multiview_weights([0.0, 0.0, 0.0]),
                               [1 / 3, 1 / 3, 1 / 3], atol=1e-15))
    report(7, "plane normals <= 0.5 deg; projection error analytic; "
              "weights normalized",
           worst_deg <= 0.5 and exact_zero and exp2 and capped and hand
           and sums_ok and uniform, f"worst normal err {worst_deg:.2e} deg")


def test_08_aggregation():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        values = rng.normal(size=(k, d))
        weights = rng.uniform(0.1, 1.0, k)
        weights /= weights.sum()
        target = int(rng.integers(0, k))

        onehot = np.zeros(k)
        sel = int(rng.integers(0, k))
        onehot[sel] = 1.0
        mean, var = weighted_moments(values, onehot)
        ok &= bool(np.array_equal(mean, values[sel]))
        ok &= bool(np.array_equal(var, np.zeros(d)))

        row = rng.normal(size=d)
        mean_i, var_i = weighted_moments(np.tile(row, (k, 1)), weights)
        ok &= bool(np.array_equal(mean_i, row) and np.array_equal(var_i,
                                                                  np.zeros(d)))

        m = aggregate(FeatureSet(values=values, weights=weights,
                                 target_index=target))
        perm = rng.permutation(k)
        m_p = aggregate(FeatureSet(values=values[perm], weights=weights[perm],
                                   target_index=int(np.where(perm == target)[0][0])))
        ok &= bool(np.array_equal(m, m_p))
        if not ok:
            break
    report(8, "aggregation collapse/zero-variance/permutation on 1000 sets", ok)


def test_09_metrics():
    rng = np.random.default_rng(107)
    a = rng.uniform(0.0, 2.0, (6, 7, 3))
    b = rng.uniform(0.1, 2.0, (6, 7, 3))
    mask = np.ones((6, 7))
    base = si_mse(a, b, mask)
    invariance = max(abs(si_mse(a, c * b, mask) - base)
                     for c in (0.1, 3.0, 10.0))
    g5 = abs(entropy_reg(np.full((5, 5), math.exp(-1.0))) - math.exp(-1.0))

    mask2 = (rng.random((6, 7)) > 0.5).astype(float)
    a2 = a.copy()
    a2[mask2 == 0.0] = 7.0
    bitwise = (masked_mse(a, b, mask2) == masked_mse(a2, b, mask2)
               and si_mse(a, b, mask2) == si_mse(a2, b, mask2))
    an = a / np.linalg.norm(a, axis=-1, keepdims=True)
    bn = b / np.linalg.norm(b, axis=-1, keepdims=True)
    an2 = an.copy()
    an2[mask2 == 0.0] *= -1.0
    bitwise = bitwise and (masked_l1_angular(an, bn, mask2)
                           == masked_l1_angular(an2, bn, mask2))
    report(9, "g3 rescale-invariant to 1e-12; g5(1/e)=1/e; masks bitwise",
           invariance <= 1e-12 and g5 <= 1e-12 and bitwise,
           f"inv={invariance:.1e}, g5 dev={g5:.1e}")


def test_10_end_to_end_demo(blas_core):
    t0 = time.time()
    first = pipeline_demo(DemoConfig())
    second = pipeline_demo(DemoConfig())
    elapsed = time.time() - t0
    m = first.metrics
    deterministic = (first.digest == second.digest)
    # each VSG supervision target's g4 over an all-black prediction's
    vsg_g4 = max(first.telemetry["vsg_fit"]["target_g4_over_black"])
    report(10, "demo: normal g1 <= 0.01, lighting g4 <= 0.05, "
               "re-render g3 <= 0.01, VSG targets <= 1e-3 of black, "
               "deterministic, < 10 min",
           m["normal_g1"] <= 0.01 and m["lighting_g4"] <= 0.05
           and m["rerender_g3"] <= 0.01 and vsg_g4 <= 1e-3 and deterministic
           and elapsed < 600.0,
           f"g1={m['normal_g1']:.1e}, g4={m['lighting_g4']:.3f}, "
           f"g3={m['rerender_g3']:.1e}, vsg g4/black={vsg_g4:.1e}, "
           f"same digest={deterministic}, {elapsed:.0f}s")
    assert first.digest == DEMO_DIGEST, (
        f"the default demo's output digest moved under the OpenBLAS {blas_core} kernel; "
        "a deliberate change must be logged in CHANGES.md with its cause before "
        "DEMO_DIGEST is updated")


def test_11_insertion_sanity():
    from voxlight.geometry import Camera, View

    # mirror sphere in isotropic emissive fog: constant color
    fog = VSGVolume.uniform((6, 6, 6), BOUNDS, alpha=0.15, sharpness=0.0,
                            intensity=(1.2, 1.0, 0.8))
    rot = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    cam = Camera(fx=45.0, fy=45.0, cx=31.5, cy=23.5, rotation=rot,
                 translation=np.array([1.0, 1.0, 1.6]))
    view = View(image=np.full((48, 64, 3), 0.5), depth=np.full((48, 64), 1.6),
                confidence=np.ones((48, 64)), camera=cam)
    normals = np.broadcast_to([0.0, 0.0, -1.0], (48, 64, 3)).copy()
    sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.9]), radius=0.25,
                            material=MirrorMaterial())
    out = insert_object(view, fog, sphere, normal_map=normals,
                        shadow_dirs=(4, 8), n_samples=64)
    dirs = cam.pixel_directions(48, 64).reshape(-1, 3)
    from voxlight.insertion import _ray_sphere_t
    t = _ray_sphere_t(np.broadcast_to(cam.center, dirs.shape), dirs,
                      sphere.center, sphere.radius)
    on_sphere = np.isfinite(t).reshape(48, 64)
    values = out[on_sphere]
    spread = float((values.max(axis=0) - values.min(axis=0)).max())
    constant = spread <= 1e-6 * float(values.mean())

    # shadow darkest point vs analytic projection (extended corner light)
    vox = np.zeros((8, 8, 8, 7))
    vox[0:2, 0:2, 7, 0] = 1.0
    vox[0:2, 0:2, 7, 4:7] = (40.0, 36.0, 30.0)
    single = VSGVolume(bounds=BOUNDS, voxels=vox)
    light = np.array([0.25, 0.25, 1.875])
    sphere2 = InsertedSphere(center=np.array([1.0, 1.0, 0.5]), radius=0.1,
                             material=MirrorMaterial())
    out2 = insert_object(view, single, sphere2, normal_map=normals,
                         shadow_dirs=(16, 32), n_samples=48)
    ratio = out2[..., 0] / view.image[..., 0]
    t2 = _ray_sphere_t(np.broadcast_to(cam.center, dirs.shape), dirs,
                       sphere2.center, sphere2.radius)
    ratio[np.isfinite(t2).reshape(48, 64)] = 1.0
    darkest = np.unravel_index(np.argmin(ratio), ratio.shape)
    direction = sphere2.center - light
    s = -light[2] / direction[2]
    ground = light + s * direction
    u, v, _ = cam.project(ground[None, :])
    dist = math.hypot(darkest[1] - u[0], darkest[0] - v[0])
    report(11, "mirror constancy in fog; shadow minimum within 2 px",
           constant and dist <= 2.0,
           f"spread={spread:.1e}, shadow dist={dist:.2f}px")
