import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from voxlight import io as vio
from voxlight.geometry import Camera, View, ViewBundle
from voxlight.sg import SGEnvironment
from voxlight.volume import Bounds, VSGVolume


class TestPfm:
    def test_color_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 10.0, (7, 5, 3))
        path = tmp_path / "img.pfm"
        vio.write_pfm(path, data)
        back = vio.read_pfm(path)
        np.testing.assert_allclose(back, data.astype(np.float32), rtol=0)

    def test_gray_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.uniform(0.1, 4.0, (6, 9))
        path = tmp_path / "depth.pfm"
        vio.write_pfm(path, data)
        np.testing.assert_allclose(vio.read_pfm(path), data.astype(np.float32),
                                   rtol=0)

    def test_header_format(self, tmp_path):
        path = tmp_path / "img.pfm"
        vio.write_pfm(path, np.zeros((2, 3, 3)))
        raw = path.read_bytes()
        assert raw.startswith(b"PF\n3 2\n-1.0\n")

    def test_truncated_payload_names_the_file(self, tmp_path):
        path = tmp_path / "cut.pfm"
        vio.write_pfm(path, np.ones((4, 5, 3)))
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match="cut.pfm.*truncated"):
            vio.read_pfm(path)

    def test_huge_claimed_size_fails_before_allocating(self, tmp_path):
        # a 23-byte file whose header claims 5000 x 5000 RGB (300 MB)
        path = tmp_path / "huge.pfm"
        path.write_bytes(b"PF\n5000 5000\n-1.0\n" + bytes(5))
        assert path.stat().st_size == 23
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(str(path))
                               + r": truncated PFM payload, 5 of 300000000 bytes"):
                vio.read_pfm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("size", [b"0 4", b"3 0", b"-2 4"])
    def test_non_positive_dimensions_rejected(self, tmp_path, size):
        path = tmp_path / "empty.pfm"
        path.write_bytes(b"PF\n" + size + b"\n-1.0\n")
        with pytest.raises(ValueError, match="empty.pfm.*positive"):
            vio.read_pfm(path)

    @pytest.mark.parametrize("header, what", [
        (b"3\n-1.0", "size line"), (b"3 4 5\n-1.0", "size line"),
        (b"three 4\n-1.0", "size line"), (b"3 4\nbig", "scale")])
    def test_malformed_header_rejected(self, tmp_path, header, what):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n" + header + b"\n" + bytes(48))
        with pytest.raises(ValueError, match=f"bad.pfm.*{what}"):
            vio.read_pfm(path)

    @pytest.mark.parametrize("header, what", [
        (b"P\xff\n3 4\n-1.0", "not a PFM file"), (b"Pf\n3\xff 4\n-1.0", "size line"),
        (b"Pf\n3 4\n-1.0\xe9", "scale")], ids=["magic", "size", "scale"])
    def test_non_ascii_header_names_the_file(self, tmp_path, header, what):
        path = tmp_path / "bad.pfm"
        path.write_bytes(header + b"\n" + bytes(48))
        with pytest.raises(ValueError, match=re.escape(str(path)) + f": .*{what}"):
            vio.read_pfm(path)

    @pytest.mark.parametrize("scale", [b"0", b"-0.0", b"nan", b"inf", b"-inf"])
    def test_zero_or_non_finite_scale_rejected(self, tmp_path, scale):
        # the scale's sign is the byte order; 0, nan and inf name none
        path = tmp_path / "scale.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + np.array([1.5, 2.5], "<f4").tobytes())
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": PFM scale must be"):
            vio.read_pfm(path)

    def test_long_unterminated_header_line_rejected_quickly(self, tmp_path):
        path = tmp_path / "long.pfm"
        path.write_bytes(b"P" * (2 << 20))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*PFM header"):
            vio.read_pfm(path)
        assert time.perf_counter() - start < 1.0

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            vio.write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_read_map_rejects_non_finite_values(self, tmp_path, bad):
        # write_pfm refuses non-finite data, so the file is written by hand
        path = tmp_path / "map.pfm"
        values = np.array([0.5, 0.5, 0.5, 0.5, bad, 0.5], "<f4")
        path.write_bytes(b"PF\n2 1\n-1.0\n" + values.tobytes())
        assert vio.read_pfm(path).shape == (1, 2, 3)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": map values must be finite"):
            vio.read_map(path, (1, 2, 3))


class TestPng:
    def test_writes_valid_signature(self, tmp_path):
        path = tmp_path / "img.png"
        vio.write_png(path, np.random.default_rng(2).uniform(0, 1, (8, 6, 3)))
        raw = path.read_bytes()
        assert raw.startswith(b"\x89PNG\r\n\x1a\n")
        assert b"IHDR" in raw and b"IDAT" in raw and raw.endswith(
            b"IEND" + (0xAE426082).to_bytes(4, "big"))


class TestCamera:
    def test_roundtrip(self, tmp_path):
        rot = np.array([[1.0, 0.0, 0.0],
                        [0.0, 0.0, -1.0],
                        [0.0, 1.0, 0.0]])
        cam = Camera(fx=50.0, fy=55.0, cx=20.0, cy=15.0, rotation=rot,
                     translation=np.array([0.1, -0.2, 0.3]))
        path = tmp_path / "cam.json"
        vio.save_camera(path, cam)
        doc = json.loads(path.read_text())
        assert set(doc) == {"fx", "fy", "cx", "cy", "world_from_camera"}
        back = vio.load_camera(path)
        np.testing.assert_array_equal(back.rotation, cam.rotation)
        np.testing.assert_array_equal(back.translation, cam.translation)
        assert back.fx == cam.fx and back.cy == cam.cy


class TestSgEnv:
    def test_roundtrip(self, tmp_path):
        env = SGEnvironment(theta=[0.5, 1.1], phi=[-1.2, 0.4], sharp=[7.5, 0.0],
                            intensity=[(1.0, 2.0, 3.0), (0.1, 0.2, 0.3)],
                            visibility=[1.0, 0.25])
        path = tmp_path / "env.json"
        vio.save_sg_env(path, env)
        back = vio.load_sg_env(path)
        for field in ("theta", "phi", "sharp", "intensity", "visibility"):
            assert getattr(back, field).tobytes() == getattr(env, field).tobytes()


class TestVolume:
    def test_roundtrip_and_header(self, tmp_path):
        rng = np.random.default_rng(3)
        vox = np.empty((3, 4, 5, 7), dtype=np.float32)
        vox[..., 0] = rng.uniform(0, 1, (3, 4, 5))
        vox[..., 1] = rng.uniform(0, math.pi, (3, 4, 5))
        vox[..., 2] = rng.uniform(-math.pi, 3.0, (3, 4, 5))
        vox[..., 3] = rng.uniform(0, 10, (3, 4, 5))
        vox[..., 4:7] = rng.uniform(0, 2, (3, 4, 5, 3))
        volume = VSGVolume(bounds=Bounds(lo=np.array([0.0, -1.0, 0.5]),
                                         hi=np.array([2.0, 1.0, 2.5])),
                           voxels=vox.astype(np.float64))
        path = tmp_path / "vol.json"
        vio.save_volume(path, volume)
        header = json.loads(path.read_text())
        assert header["channel_order"] == ["alpha", "theta", "phi", "sharpness",
                                           "r", "g", "b"]
        assert header["dtype"] == "f32" and header["layout"] == "x-major"
        back = vio.load_volume(path)
        np.testing.assert_array_equal(back.voxels,
                                      volume.voxels.astype(np.float32))
        np.testing.assert_array_equal(back.bounds.lo, volume.bounds.lo)

    def test_binary_is_x_major_little_endian(self, tmp_path):
        vox = np.zeros((2, 1, 1, 7))
        vox[1, 0, 0, 0] = 1.0  # second x-slab, channel 0
        volume = VSGVolume(bounds=Bounds(lo=np.zeros(3), hi=np.ones(3)),
                           voxels=vox)
        vio.save_volume(tmp_path / "v.json", volume)
        raw = np.frombuffer((tmp_path / "v.bin").read_bytes(), dtype="<f4")
        assert raw.shape == (14,)
        assert raw[7] == 1.0  # x is the slowest axis, channels fastest


class TestSurfaceVolume:
    def test_roundtrip(self, tmp_path):
        from voxlight.geometry import Camera
        from voxlight.surface import build_surface_volume
        rng = np.random.default_rng(6)
        h, w = 10, 12
        cam = Camera(fx=20.0, fy=20.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                     rotation=np.eye(3), translation=np.zeros(3))
        normal = np.broadcast_to([0.0, 0.0, -1.0], (h, w, 3)).copy()
        sv = build_surface_volume(
            rng.uniform(0, 1, (h, w, 3)).astype(np.float32).astype(np.float64),
            normal,
            rng.uniform(0, 1, (h, w, 3)).astype(np.float32).astype(np.float64),
            rng.uniform(0, 1, (h, w)).astype(np.float32).astype(np.float64),
            np.full((h, w), 2.0), np.ones((h, w)), cam, (4, 4, 4),
            Bounds(lo=np.array([-0.4, -0.3, 1.0]), hi=np.array([0.4, 0.3, 3.0])))
        path = tmp_path / "surface.json"
        vio.save_surface_volume(path, sv)
        header = json.loads(path.read_text())
        assert len(header["channel_order"]) == 10
        back = vio.load_surface_volume(path)
        np.testing.assert_array_equal(back.data, sv.data.astype(np.float32))


def _saved_volume(kind, path):
    """Write a small VSG (``kind`` "vsg") or surface volume to ``path``."""
    from voxlight.surface import SurfaceVolume
    bounds = Bounds(lo=np.zeros(3), hi=np.ones(3))
    if kind == "vsg":
        vio.save_volume(path, VSGVolume(bounds=bounds, voxels=np.zeros((2, 3, 1, 7))))
        return vio.load_volume
    data = np.zeros((2, 3, 1, 10))
    vio.save_surface_volume(path, SurfaceVolume(bounds=bounds, data=data))
    return vio.load_surface_volume


@pytest.mark.parametrize("kind", ["vsg", "surface"])
class TestSidecarChecks:
    @pytest.mark.parametrize("delta", [-4, 4])
    def test_sidecar_size_must_match_dims(self, tmp_path, kind, delta):
        path = tmp_path / "v.json"
        load = _saved_volume(kind, path)
        binary = tmp_path / "v.bin"
        payload = binary.read_bytes()
        binary.write_bytes(payload[:delta] if delta < 0 else payload + b"\0" * delta)
        with pytest.raises(ValueError, match=r"v\.json.*bytes"):
            load(path)

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_sidecar_must_stay_in_header_directory(self, tmp_path, kind, where):
        sub = tmp_path / "sub"
        sub.mkdir()
        path = sub / "v.json"
        load = _saved_volume(kind, path)
        # a well-formed sidecar outside the header's directory
        outside = tmp_path / "v.bin"
        (sub / "v.bin").rename(outside)
        header = json.loads(path.read_text())
        header["data"] = str(outside) if where == "absolute" else "../v.bin"
        path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=r"v\.json.*outside"):
            load(path)

    def test_padded_sidecar_fails_before_reading(self, tmp_path, kind):
        # a 2x3x1 header whose sidecar is padded (sparsely) to 20 MB
        path = tmp_path / "v.json"
        load = _saved_volume(kind, path)
        with open(tmp_path / "v.bin", "r+b") as f:
            f.truncate(20_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(str(path))
                               + r": sidecar v\.bin holds 20000000 bytes"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("corner, axis, bad", [
        ("lo", 0, -math.inf), ("hi", 2, math.inf), ("lo", 1, math.nan)],
        ids=["-inf", "inf", "nan"])
    def test_bounds_must_be_finite(self, tmp_path, kind, corner, axis, bad):
        path = tmp_path / "v.json"
        load = _saved_volume(kind, path)
        header = json.loads(path.read_text())
        header["bounds"][corner][axis] = bad
        path.write_text(json.dumps(header))   # json writes -Infinity, Infinity, NaN
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + ": bounds corners must be finite"):
            load(path)


class TestEnvTiling:
    def test_tile_untile_roundtrip(self):
        rng = np.random.default_rng(4)
        envs = rng.uniform(0, 1, (5, 6, 3, 4, 3))
        tiled = vio.tile_env_maps(envs)
        assert tiled.shape == (15, 24, 3)
        np.testing.assert_array_equal(vio.untile_env_maps(tiled, 3, 4), envs)

    def test_tile_layout(self):
        envs = np.zeros((2, 2, 2, 2, 3))
        envs[1, 0, 0, 1] = 1.0  # pixel (1, 0), texel (0, 1)
        tiled = vio.tile_env_maps(envs)
        assert tiled[2, 1, 0] == 1.0


class TestSceneDir:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        cam = Camera(fx=30.0, fy=30.0, cx=7.5, cy=5.5, rotation=np.eye(3),
                     translation=np.zeros(3))
        views = [View(image=rng.uniform(0, 1, (12, 16, 3)).astype(np.float32)
                      .astype(np.float64),
                      depth=np.full((12, 16), 2.0),
                      confidence=np.ones((12, 16)), camera=cam)
                 for _ in range(2)]
        bundle = ViewBundle(views=views, target_index=1)
        gt = {
            "albedo": rng.uniform(0, 1, (2, 12, 16, 3)).astype(np.float32)
            .astype(np.float64),
            "rough": rng.uniform(0, 1, (2, 12, 16)).astype(np.float32)
            .astype(np.float64),
            "normal": np.broadcast_to([0.0, 0.0, -1.0], (2, 12, 16, 3)).copy(),
            "env": rng.uniform(0, 1, (12, 16, 4, 8, 3)).astype(np.float32)
            .astype(np.float64),
        }
        vio.save_scene(tmp_path / "scene", bundle, gt)
        back, gt_back = vio.load_scene(tmp_path / "scene")
        assert back.target_index == 1
        assert len(back.views) == 2
        np.testing.assert_array_equal(back.views[0].image, views[0].image)
        np.testing.assert_array_equal(gt_back["albedo"], gt["albedo"])
        np.testing.assert_array_equal(gt_back["env"], gt["env"])
        np.testing.assert_array_equal(back.views[1].depth, views[1].depth)


def _json_reader(kind, tmp_path):
    """Write a well-formed ``kind`` document and return its path, a loader
    that reads it, and a key to drop and a wrong-typed value for a key."""
    cam = Camera(fx=30.0, fy=30.0, cx=1.5, cy=1.0, rotation=np.eye(3),
                 translation=np.zeros(3))
    if kind == "camera":
        path = tmp_path / "cam.json"
        vio.save_camera(path, cam)
        return path, lambda: vio.load_camera(path), "world_from_camera", ("fx", [30.0])
    if kind == "sg_env":
        path = tmp_path / "env.json"
        vio.save_sg_env(path, SGEnvironment([0.5], [-1.2], [7.5], [(1.0, 2.0, 3.0)]))
        return path, lambda: vio.load_sg_env(path), "lobes", ("lobes", 3)
    if kind == "volume":
        path = tmp_path / "vol.json"
        vio.save_volume(path, VSGVolume(bounds=Bounds(lo=np.zeros(3), hi=np.ones(3)),
                                        voxels=np.zeros((2, 3, 1, 7))))
        return path, lambda: vio.load_volume(path), "dims", ("dims", "2x3x1")
    view = View(image=np.zeros((3, 4, 3)), depth=np.ones((3, 4)),
                confidence=np.ones((3, 4)), camera=cam)
    vio.save_scene(tmp_path / "scene", ViewBundle(views=[view], target_index=0))
    return (tmp_path / "scene" / "scene.json", lambda: vio.load_scene(tmp_path / "scene"),
            "num_views", ("num_views", "one"))


class TestJsonReaders:
    @pytest.mark.parametrize("case", ["truncated", "missing_key", "wrong_type"])
    @pytest.mark.parametrize("kind", ["camera", "sg_env", "volume", "scene"])
    def test_malformed_json_names_the_file(self, tmp_path, kind, case):
        path, load, dropped, (key, value) = _json_reader(kind, tmp_path)
        load()   # the well-formed document reads
        text = path.read_text()
        if case == "truncated":
            path.write_text(text[:len(text) // 2])
        else:
            doc = json.loads(text)
            if case == "missing_key":
                del doc[dropped]
            else:
                doc[key] = value
            path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load()


def _scene_with_env(tmp_path):
    cam = Camera(fx=30.0, fy=30.0, cx=1.5, cy=1.0, rotation=np.eye(3),
                 translation=np.zeros(3))
    views = [View(image=np.zeros((3, 4, 3)), depth=np.ones((3, 4)),
                  confidence=np.ones((3, 4)), camera=cam) for _ in range(2)]
    vio.save_scene(tmp_path / "scene", ViewBundle(views=views, target_index=1),
                   {"env": np.zeros((3, 4, 2, 4, 3))})
    return tmp_path / "scene" / "scene.json", lambda: vio.load_scene(tmp_path / "scene")


class TestJsonIntegers:
    @pytest.mark.parametrize("field, value", [
        ("num_views", 1.9), ("target_index", 0.5), ("env_angular", [2.5, 4]),
        ("dims", [2, 3.5, 1])])
    def test_non_integral_number_names_the_file(self, tmp_path, field, value):
        if field == "dims":
            path, load = tmp_path / "vol.json", lambda: vio.load_volume(tmp_path / "vol.json")
            vio.save_volume(path, VSGVolume(bounds=Bounds(lo=np.zeros(3), hi=np.ones(3)),
                                            voxels=np.zeros((2, 3, 1, 7))))
        else:
            path, load = _scene_with_env(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*integer"):
            load()

    def test_integral_floats_read_as_integers(self, tmp_path):
        path, load = _scene_with_env(tmp_path)
        doc = json.loads(path.read_text())
        doc.update(num_views=2.0, target_index=1.0, env_angular=[2.0, 4.0])
        path.write_text(json.dumps(doc))
        bundle, gt = load()
        assert len(bundle.views) == 2 and bundle.target_index == 1
        assert gt["env"].shape == (3, 4, 2, 4, 3)


def _scene_with_gt(root):
    """A two-view 3 x 4 scene with every ground-truth map, written to ``root``."""
    cam = Camera(fx=30.0, fy=30.0, cx=1.5, cy=1.0, rotation=np.eye(3),
                 translation=np.zeros(3))
    views = [View(image=np.full((3, 4, 3), 0.5), depth=np.ones((3, 4)),
                  confidence=np.ones((3, 4)), camera=cam) for _ in range(2)]
    vio.save_scene(root, ViewBundle(views=views, target_index=1),
                   {"albedo": np.full((2, 3, 4, 3), 0.5), "rough": np.full((2, 3, 4), 0.5),
                    "normal": np.broadcast_to([0.0, 0.0, -1.0], (2, 3, 4, 3)),
                    "env": np.ones((3, 4, 2, 4, 3))})


def _set_meta(root, **fields):
    doc = json.loads((root / "scene.json").read_text())
    doc.update(fields)
    (root / "scene.json").write_text(json.dumps(doc))


# (malformed file, how to break it): each must fail naming that file
MALFORMED_SCENES = {
    "env_row_too_tall": ("gt_env_target.pfm", lambda root: vio.write_pfm(
        root / "gt_env_target.pfm", np.ones((3 * 2 + 1, 4 * 4, 3)))),
    "env_gray": ("gt_env_target.pfm", lambda root: vio.write_pfm(
        root / "gt_env_target.pfm", np.ones((3 * 2, 4 * 4)))),
    "env_negative": ("gt_env_target.pfm", lambda root: vio.write_pfm(
        root / "gt_env_target.pfm", np.full((3 * 2, 4 * 4, 3), -1.0))),
    "env_angular_zero": ("scene.json", lambda root: _set_meta(root, env_angular=[0, 4])),
    "env_angular_three": ("scene.json", lambda root: _set_meta(root, env_angular=[2, 4, 1])),
    "no_views": ("scene.json", lambda root: _set_meta(root, num_views=0)),
    "target_out_of_range": ("scene.json", lambda root: _set_meta(root, target_index=5)),
    "zero_depth": ("depth_1.pfm", lambda root: vio.write_pfm(
        root / "depth_1.pfm", np.where(np.eye(3, 4) == 1.0, 0.0, 1.0))),
    "depth_size": ("depth_1.pfm", lambda root: vio.write_pfm(
        root / "depth_1.pfm", np.ones((3, 5)))),
    "image_size": ("im_1.pfm", lambda root: vio.write_pfm(root / "im_1.pfm",
                                                          np.ones((4, 4, 3)))),
    "gt_albedo_size": ("gt_albedo_1.pfm", lambda root: vio.write_pfm(
        root / "gt_albedo_1.pfm", np.ones((3, 4)))),
    "negative_image": ("im_1.pfm", lambda root: vio.write_pfm(
        root / "im_1.pfm", np.where(np.eye(3, 4)[..., None] == 1.0, -0.5, 0.5) * np.ones(3))),
    "confidence_above_one": ("conf_0.pfm", lambda root: vio.write_pfm(
        root / "conf_0.pfm", np.full((3, 4), 2.0))),
    "gt_normal_missing": ("gt_normal_1.pfm", lambda root: (root / "gt_normal_1.pfm").unlink()),
    "gt_rough_missing_first": ("gt_rough_0.pfm", lambda root: (root / "gt_rough_0.pfm").unlink()),
}


class TestMalformedScenes:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENES))
    def test_error_names_the_file(self, tmp_path, case):
        root = tmp_path / "scene"
        _scene_with_gt(root)
        vio.load_scene(root)   # the well-formed scene reads
        name, corrupt = MALFORMED_SCENES[case]
        corrupt(root)
        with pytest.raises(ValueError, match=re.escape(str(root / name))):
            vio.load_scene(root)

    def test_volume_opacity_names_the_file(self, tmp_path):
        path = tmp_path / "vol.json"
        vio.save_volume(path, VSGVolume(bounds=Bounds(lo=np.zeros(3), hi=np.ones(3)),
                                        voxels=np.zeros((2, 3, 1, 7))))
        voxels = np.zeros((2, 3, 1, 7), dtype="<f4")
        voxels[1, 2, 0, 0] = 1.5
        path.with_suffix(".bin").write_bytes(voxels.tobytes())
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": opacity"):
            vio.load_volume(path)
