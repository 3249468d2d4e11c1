"""File formats: PFM radiance maps, PNG previews, camera / SG-environment
JSON, VSG volume header + raw sidecar, and the scene directory layout.

PFM follows the portable-float-map convention: "PF" (color) or "Pf" (gray)
header, width/height line, negative scale for little-endian, scanlines
stored bottom to top. HDR data stays linear; PNG previews apply gamma 2.2.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .geometry import Camera, View, ViewBundle
from .sg import SGEnvironment, SGLobe
from .volume import CHANNEL_ORDER, Bounds, VSGVolume


# ---------------------------------------------------------------------------
# PFM
# ---------------------------------------------------------------------------

def write_pfm(path, data: np.ndarray) -> None:
    """Write (H, W) or (H, W, 3) float data as a little-endian PFM."""
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)) or np.any(np.abs(data) > 3.0e38):
        raise ValueError("PFM data must be finite and fit in float32")
    data = data.astype(np.float32)
    if data.ndim == 2:
        header = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        header = b"PF"
    else:
        raise ValueError(f"PFM supports (H, W) or (H, W, 3), got {data.shape}")
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(header + b"\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")  # negative scale: little endian
        f.write(np.ascontiguousarray(data[::-1]).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into float64 (H, W) or (H, W, 3). A malformed or
    truncated file raises ValueError naming it."""
    with open(path, "rb") as f:
        def line():
            out = b""
            while True:
                ch = f.read(1)
                if not ch:
                    raise ValueError(f"{path}: unexpected end of PFM header")
                if ch == b"\n":
                    return out.decode("ascii").strip()
                out += ch
        magic = line()
        if magic == "PF":
            channels = 3
        elif magic == "Pf":
            channels = 1
        else:
            raise ValueError(f"{path}: not a PFM file (magic {magic!r})")
        size = line()
        try:
            w, h = (int(x) for x in size.split())
        except ValueError:
            raise ValueError(f"{path}: malformed PFM size line {size!r}") from None
        if w <= 0 or h <= 0:
            raise ValueError(f"{path}: PFM width and height must be positive, "
                             f"got {w} x {h}")
        scale_line = line()
        try:
            scale = float(scale_line)
        except ValueError:
            raise ValueError(f"{path}: malformed PFM scale {scale_line!r}") from None
        dtype = "<f4" if scale < 0.0 else ">f4"
        need = 4 * w * h * channels
        payload = f.read(need)
    if len(payload) < need:
        raise ValueError(f"{path}: truncated PFM payload, {len(payload)} of "
                         f"{need} bytes")
    data = np.frombuffer(payload, dtype=dtype).reshape(h, w, channels)
    data = data[::-1].astype(np.float64)
    return data[..., 0] if channels == 1 else data


# ---------------------------------------------------------------------------
# PNG previews (8-bit, gamma 2.2)
# ---------------------------------------------------------------------------

def write_png(path, image: np.ndarray, exposure: float = 1.0) -> None:
    """Write linear HDR RGB as an 8-bit PNG preview with gamma 2.2."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = np.repeat(img[..., None], 3, axis=-1)
    ldr = np.clip(exposure * img, 0.0, 1.0) ** (1.0 / 2.2)
    data = (ldr * 255.0 + 0.5).astype(np.uint8)
    h, w = data.shape[:2]
    raw = b"".join(b"\x00" + data[i].tobytes() for i in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(
            ">I", zlib.crc32(body) & 0xFFFFFFFF)

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", header))
        f.write(chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# JSON documents: cameras, SG environments, volume headers, scene metadata
# ---------------------------------------------------------------------------

@contextmanager
def _naming(path):
    """Re-raise a KeyError, TypeError or ValueError from the block as a
    ValueError that names ``path``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_json(path, parse):
    """``parse`` applied to the JSON object in ``path``. Malformed JSON, a missing
    key or a value of the wrong type raises ValueError naming the file."""
    with _naming(path):
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return parse(doc)


def _integer(value) -> int:
    """A count, index or size read from JSON: an integral number, which a
    float like 2.0 may spell; 1.9 raises instead of truncating to 1."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def camera_to_dict(camera: Camera) -> dict:
    return {
        "fx": camera.fx, "fy": camera.fy, "cx": camera.cx, "cy": camera.cy,
        "world_from_camera": {
            "rotation": camera.rotation.tolist(),
            "translation": camera.translation.tolist(),
        },
    }


def camera_from_dict(doc: dict) -> Camera:
    pose = doc["world_from_camera"]
    return Camera(fx=float(doc["fx"]), fy=float(doc["fy"]),
                  cx=float(doc["cx"]), cy=float(doc["cy"]),
                  rotation=np.asarray(pose["rotation"], dtype=np.float64),
                  translation=np.asarray(pose["translation"], dtype=np.float64))


def save_camera(path, camera: Camera) -> None:
    Path(path).write_text(json.dumps(camera_to_dict(camera), indent=2))


def load_camera(path) -> Camera:
    return _load_json(path, camera_from_dict)


def save_sg_env(path, env: SGEnvironment) -> None:
    doc = {
        "lobes": [{"theta": lobe.axis_theta, "phi": lobe.axis_phi,
                   "sharpness": lobe.sharpness,
                   "intensity": list(lobe.intensity)} for lobe in env.lobes],
        "visibility": list(env.visibility),
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def _sg_env_from_dict(doc: dict) -> SGEnvironment:
    lobes = tuple(SGLobe(axis_theta=float(l["theta"]), axis_phi=float(l["phi"]),
                         sharpness=float(l["sharpness"]),
                         intensity=tuple(l["intensity"])) for l in doc["lobes"])
    return SGEnvironment(lobes=lobes, visibility=tuple(doc.get("visibility", ())))


def load_sg_env(path) -> SGEnvironment:
    return _load_json(path, _sg_env_from_dict)


# ---------------------------------------------------------------------------
# VSG volumes: JSON header + little-endian float32 sidecar, x-major layout
# (x slowest, channel fastest; matches a C-ordered (X, Y, Z, C) array).
# ---------------------------------------------------------------------------

def _save_sidecar_volume(path, data: np.ndarray, bounds: Bounds,
                         channel_order) -> None:
    path = Path(path)
    binary = path.with_suffix(".bin")
    if np.any(np.abs(data) > 3.0e38):
        raise ValueError("volume channels do not fit in float32")
    header = {
        "dims": list(data.shape[:3]),
        "bounds": {"lo": bounds.lo.tolist(), "hi": bounds.hi.tolist()},
        "channel_order": list(channel_order),
        "dtype": "f32",
        "layout": "x-major",
        "data": binary.name,
    }
    path.write_text(json.dumps(header, indent=2))
    binary.write_bytes(np.ascontiguousarray(data, dtype="<f4").tobytes())


def save_volume(path, volume: VSGVolume) -> None:
    _save_sidecar_volume(path, volume.voxels, volume.bounds, CHANNEL_ORDER)


def _load_sidecar_volume(path: Path, channel_order) -> tuple[np.ndarray, Bounds]:
    """Channels (X, Y, Z, C) and bounds of a header + raw-sidecar volume.
    A bad header, a sidecar outside the header's directory or one whose size
    disagrees with ``dims`` raises ValueError naming the file."""
    encoding, order, dims, data, bounds = _load_json(path, lambda h: (
        (h.get("dtype"), h.get("layout")), list(h["channel_order"]),
        tuple(_integer(d) for d in h["dims"]), Path(h["data"]),
        Bounds(lo=np.asarray(h["bounds"]["lo"], dtype=np.float64),
               hi=np.asarray(h["bounds"]["hi"], dtype=np.float64))))
    if encoding != ("f32", "x-major"):
        raise ValueError(f"{path}: unsupported volume encoding")
    if order != list(channel_order):
        raise ValueError(f"{path}: unexpected channel order {order}")
    base = path.parent.resolve()
    binary = (base / data).resolve()
    if data.is_absolute() or not binary.is_relative_to(base):
        raise ValueError(f"{path}: sidecar {str(data)!r} lies outside "
                         f"the header's directory")
    payload = binary.read_bytes()
    need = 4 * math.prod(dims) * len(channel_order)
    if len(payload) != need:
        raise ValueError(f"{path}: sidecar {binary.name} holds {len(payload)} "
                         f"bytes, dims {list(dims)} need {need}")
    voxels = np.frombuffer(payload, dtype="<f4").reshape(dims + (len(channel_order),))
    return voxels.astype(np.float64), bounds


def load_volume(path) -> VSGVolume:
    voxels, bounds = _load_sidecar_volume(Path(path), CHANNEL_ORDER)
    with _naming(path):
        return VSGVolume(bounds=bounds, voxels=voxels)


# Surface volumes share the header + raw-sidecar format; the 10 channels are
# the confidence-weighted record [rho*I, rho*N, rho*A, rho*R].
SURFACE_CHANNEL_ORDER = ("rho_ir", "rho_ig", "rho_ib", "rho_nx", "rho_ny",
                         "rho_nz", "rho_ar", "rho_ag", "rho_ab", "rho_rough")


def save_surface_volume(path, volume) -> None:
    _save_sidecar_volume(path, volume.data, volume.bounds, SURFACE_CHANNEL_ORDER)


def load_surface_volume(path):
    from .surface import SurfaceVolume
    data, bounds = _load_sidecar_volume(Path(path), SURFACE_CHANNEL_ORDER)
    # rho is recoverable: the stored normal block is rho * (unit normal)
    rho = np.linalg.norm(data[..., 3:6], axis=-1)
    with _naming(path):
        return SurfaceVolume(bounds=bounds, data=data, rho=rho)


# ---------------------------------------------------------------------------
# Scene directories: im_*.pfm, depth_*.pfm, conf_*.pfm, cam_*.json plus
# gt_albedo_*, gt_rough_*, gt_normal_*, gt_env_* ground truth. Per-pixel env
# maps are tiled into one PFM of shape (H * H_a, W * W_a).
# ---------------------------------------------------------------------------

def tile_env_maps(envs: np.ndarray) -> np.ndarray:
    """(H, W, Ha, Wa, 3) per-pixel env maps -> (H * Ha, W * Wa, 3) tiling."""
    h, w, ha, wa, _ = envs.shape
    return envs.transpose(0, 2, 1, 3, 4).reshape(h * ha, w * wa, 3)


def untile_env_maps(tiled: np.ndarray, ha: int, wa: int) -> np.ndarray:
    """Inverse of ``tile_env_maps``."""
    rows, cols, _ = tiled.shape
    h, w = rows // ha, cols // wa
    return tiled.reshape(h, ha, w, wa, 3).transpose(0, 2, 1, 3, 4)


def save_scene(path, bundle: ViewBundle, gt: dict | None = None) -> None:
    """Write a scene directory; ``gt`` may hold per-view albedo/rough/normal
    maps and tiled env maps keyed 'albedo', 'rough', 'normal', 'env'."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for k, view in enumerate(bundle.views):
        write_pfm(path / f"im_{k}.pfm", view.image)
        write_pfm(path / f"depth_{k}.pfm", view.depth)
        write_pfm(path / f"conf_{k}.pfm", view.confidence)
        save_camera(path / f"cam_{k}.json", view.camera)
    meta = {"num_views": len(bundle.views), "target_index": bundle.target_index}
    if gt:
        for k in range(len(bundle.views)):
            for key in ("albedo", "rough", "normal"):
                if key in gt:
                    write_pfm(path / f"gt_{key}_{k}.pfm", gt[key][k])
        if "env" in gt:  # target view only; large
            envs = gt["env"]
            meta["env_angular"] = [envs.shape[2], envs.shape[3]]
            write_pfm(path / "gt_env_target.pfm", tile_env_maps(envs))
    (path / "scene.json").write_text(json.dumps(meta, indent=2))


def _read_map(path, shape) -> np.ndarray:
    """A PFM of ``shape`` (any gray map if None); otherwise a ValueError names it."""
    data = read_pfm(path)
    if data.shape != (shape or data.shape[:2]):
        raise ValueError(f"{path}: expected shape {shape or '(H, W)'}, got {data.shape}")
    return data


def _scene_meta(m: dict):
    angular = tuple(_integer(x) for x in m["env_angular"]) if "env_angular" in m else None
    if angular is not None and (len(angular) != 2 or min(angular) < 1):
        raise ValueError(f"env_angular must be two positive sizes, got {list(angular)}")
    return _integer(m["num_views"]), _integer(m["target_index"]), angular


def load_scene(path) -> tuple[ViewBundle, dict]:
    """Read a scene directory back into a bundle and a ground-truth dict. A
    malformed file, a map whose shape or values do not fit the scene, or a
    ground-truth map that some views lack raises ValueError naming a file."""
    path = Path(path)
    num_views, target_index, env_angular = _load_json(path / "scene.json", _scene_meta)
    views, hw = [], None
    for k in range(num_views):
        files = [path / f"{stem}_{k}.pfm" for stem in ("depth", "im", "conf")]
        depth = _read_map(files[0], hw)
        hw = depth.shape
        image, conf = _read_map(files[1], hw + (3,)), _read_map(files[2], hw)
        camera = load_camera(path / f"cam_{k}.json")
        with _naming(f"{files[0]}, {files[2]}"):  # View checks their values
            views.append(View(image=image, depth=depth, confidence=conf, camera=camera))
    with _naming(path / "scene.json"):  # num_views or target_index out of range
        bundle = ViewBundle(views=views, target_index=target_index)
    gt: dict = {}
    for key, shape in (("albedo", hw + (3,)), ("rough", hw), ("normal", hw + (3,))):
        files = [path / f"gt_{key}_{k}.pfm" for k in range(num_views)]
        present = [f.exists() for f in files]
        if any(present) and not all(present):
            raise ValueError(f"{files[present.index(False)]}: missing, but "
                             f"{files[present.index(True)].name} exists")
        if all(present):
            gt[key] = np.stack([_read_map(f, shape) for f in files])
    env_file = path / "gt_env_target.pfm"
    if env_file.exists():
        if env_angular is None:
            raise ValueError(f"{path / 'scene.json'}: missing key 'env_angular'")
        ha, wa = env_angular
        gt["env"] = untile_env_maps(_read_map(env_file, (hw[0] * ha, hw[1] * wa, 3)), ha, wa)
    return bundle, gt
