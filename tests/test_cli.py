import json
import math
import re

import numpy as np
import pytest

from voxlight import io as vio
from voxlight.cli import main
from voxlight.metrics import brdf_loss, normal_loss


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes") / "tiny"
    config = tmp_path_factory.mktemp("cfg") / "scene.json"
    config.write_text(json.dumps({
        "image_width": 24, "image_height": 18, "env_width": 8, "env_height": 4,
        "num_views": 2, "env_supersample": 2,
    }))
    assert main(["gen-scene", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestGenScene:
    def test_layout(self, scene_dir):
        names = {p.name for p in scene_dir.iterdir()}
        for stem in ("im_0.pfm", "depth_0.pfm", "conf_0.pfm", "cam_0.json",
                     "im_1.pfm", "gt_albedo_0.pfm", "gt_rough_0.pfm",
                     "gt_normal_0.pfm", "gt_env_target.pfm", "scene.json"):
            assert stem in names

    def test_rejects_unknown_config_field(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"imagewidth": 10}))
        with pytest.raises(SystemExit):
            main(["gen-scene", "--config", str(config), "--out",
                  str(tmp_path / "x")])


    @pytest.mark.parametrize("command, doc", [("gen-scene", {"seed": 0}),
                                              ("demo", {"seed": 0}),
                                              ("demo", {"scene": {"seed": 0}})])
    def test_rejects_removed_seed_field(self, command, doc, tmp_path):
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match="unknown config fields.*'seed'"):
            main([command, "--config", str(config), "--out", str(tmp_path / "x")])


class TestFitSg(object):
    def test_fit_and_save(self, scene_dir, tmp_path):
        # fit the env map observed at one pixel of the generated scene
        bundle, gt = vio.load_scene(scene_dir)
        env_file = tmp_path / "pixel_env.pfm"
        vio.write_pfm(env_file, gt["env"][9, 12])
        out = tmp_path / "env.json"
        assert main(["fit-sg", "--env", str(env_file), "--lobes", "2",
                     "--iters", "300", "--out", str(out)]) == 0
        env = vio.load_sg_env(out)
        assert len(env) == 2

    @pytest.mark.parametrize("case, message", [
        ("gray", "texels must have shape (1, 2, 3), got (1, 2)"),
        ("nan", "texel values must be finite and >= 0"),
        ("negative", "texel values must be finite and >= 0")], ids=["gray", "nan", "negative"])
    def test_rejects_a_bad_env_map_naming_the_file(self, tmp_path, case, message):
        env_file = tmp_path / "env.pfm"
        if case == "gray":
            vio.write_pfm(env_file, np.array([[0.5, 1.0]]))
        elif case == "negative":
            vio.write_pfm(env_file, np.array([[[0.5, 1.0, 1.0], [0.5, -1.0, 1.0]]]))
        else:   # write_pfm refuses non-finite data, so the file is written by hand
            env_file.write_bytes(b"PF\n2 1\n-1.0\n"
                                 + np.array([0.5, 1, 1, 0.5, np.nan, 1], "<f4").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{env_file}: {message}")):
            main(["fit-sg", "--env", str(env_file), "--lobes", "1", "--iters", "5",
                  "--out", str(tmp_path / "env.json")])


class TestVolumeCommands:
    def test_fit_vsg_render_env_insert(self, scene_dir, tmp_path):
        vol_file = tmp_path / "vol.json"
        assert main(["fit-vsg", "--scene", str(scene_dir), "--dims", "4",
                     "--grid", "2", "--iters", "150", "--out",
                     str(vol_file)]) == 0
        volume = vio.load_volume(vol_file)
        assert volume.dims == (4, 4, 4)

        env_out = tmp_path / "env.pfm"
        assert main(["render-env", "--volume", str(vol_file), "--point",
                     "0.0,2.0,0.5", "--width", "8", "--height", "4",
                     "--samples", "16", "--out", str(env_out)]) == 0
        assert vio.read_pfm(env_out).shape == (4, 8, 3)

        img_out = tmp_path / "insert.pfm"
        assert main(["insert", "--scene", str(scene_dir), "--volume",
                     str(vol_file), "--center", "0.0,2.0,0.6", "--radius",
                     "0.2", "--material", "mirror", "--shadow-res", "4",
                     "--samples", "8", "--out", str(img_out)]) == 0
        assert vio.read_pfm(img_out).shape == (18, 24, 3)

        png_out = tmp_path / "insert.png"
        assert main(["insert", "--scene", str(scene_dir), "--volume",
                     str(vol_file), "--center", "0.0,2.0,0.6", "--radius",
                     "0.2", "--material", "diffuse:0.8,0.8,0.8:0.6",
                     "--shadow-res", "4", "--samples", "8", "--out",
                     str(png_out)]) == 0
        assert png_out.read_bytes().startswith(b"\x89PNG")

    def test_bad_material_rejected(self, scene_dir, tmp_path):
        for material in ("chrome", "diffuse:0.8,0.8,0.8", "diffuse:a,b,c:0.5",
                         "diffuse:0.8,0.8,0.8:0.5:1"):
            with pytest.raises(SystemExit, match="use mirror or diffuse:r,g,b:rough"):
                main(["insert", "--scene", str(scene_dir), "--volume", "nope.json",
                      "--center", "0,0,0", "--radius", "0.1", "--material",
                      material, "--out", str(tmp_path / "x.pfm")])


class TestRerenderAndMetrics:
    def test_rerender_close_to_input(self, scene_dir, tmp_path):
        out = tmp_path / "rerender.pfm"
        assert main(["rerender", "--scene", str(scene_dir), "--out",
                     str(out)]) == 0
        bundle, _ = vio.load_scene(scene_dir)
        image = vio.read_pfm(out)
        ref = bundle.target.image
        assert np.max(np.abs(image - ref)) <= 0.02 * max(float(ref.max()), 1e-9)

    def test_metrics_report(self, scene_dir, tmp_path):
        bundle, gt = vio.load_scene(scene_dir)
        pred = tmp_path / "pred"
        pred.mkdir()
        vio.write_pfm(pred / "normal_0.pfm", gt["normal"][0])
        vio.write_pfm(pred / "albedo_0.pfm", gt["albedo"][0] * 2.0)
        vio.write_pfm(pred / "rough_0.pfm", gt["rough"][0])
        report_file = tmp_path / "report.json"
        assert main(["metrics", "--scene", str(scene_dir), "--pred", str(pred),
                     "--out", str(report_file)]) == 0
        report = json.loads(report_file.read_text())
        assert report["g1_normal"] <= 1e-6
        assert report["g3_albedo"] <= 1e-9   # scale-invariant: 2x albedo is free
        assert report["g2_rough"] <= 1e-12

    @pytest.mark.parametrize("with_mask", [False, True])
    def test_metrics_losses_are_stage_losses(self, scene_dir, tmp_path, with_mask):
        bundle, gt = vio.load_scene(scene_dir)
        rng = np.random.default_rng(5)
        pred = tmp_path / "pred"
        pred.mkdir()
        normal = gt["normal"][0] + rng.normal(0.0, 0.05, gt["normal"][0].shape)
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
        vio.write_pfm(pred / "normal_0.pfm", normal)
        vio.write_pfm(pred / "albedo_0.pfm",
                      gt["albedo"][0] * rng.uniform(0.5, 2.0, gt["albedo"][0].shape))
        vio.write_pfm(pred / "rough_0.pfm",
                      np.clip(gt["rough"][0] + rng.normal(0.0, 0.1, gt["rough"][0].shape),
                              0.0, 1.0))
        mask = (rng.random(bundle.target.depth.shape) > 0.3).astype(np.float64)
        if with_mask:
            vio.write_pfm(pred / "mask.pfm", mask)
        else:
            mask = np.ones(bundle.target.depth.shape)
        report_file = tmp_path / "report.json"
        assert main(["metrics", "--scene", str(scene_dir), "--pred", str(pred),
                     "--out", str(report_file)]) == 0
        report = json.loads(report_file.read_text())
        l_normal = normal_loss(gt["normal"][0], vio.read_pfm(pred / "normal_0.pfm"), mask)
        l_brdf = brdf_loss(gt["albedo"][0], vio.read_pfm(pred / "albedo_0.pfm"),
                           gt["rough"][0], vio.read_pfm(pred / "rough_0.pfm"), mask)
        assert report["L_normal"] == l_normal > 0.0
        assert report["L_BRDF"] == l_brdf > 0.0
        for key in ("L_SVL", "L_SVL_reg", "L_SVL_rerender"):
            assert key not in report

    @pytest.mark.parametrize("name, data", [
        ("normal_0.pfm", np.ones((5, 5, 3))),
        ("albedo_0.pfm", np.ones((18, 24))),
        ("rough_0.pfm", np.ones((18, 24, 3))),
        ("rerender_0.pfm", np.ones((18, 23, 3))),
        ("env_target.pfm", np.ones((18, 24, 3))),
        ("mask.pfm", np.ones((3, 3))),
        ("mask.pfm", np.full((18, 24), 0.5)),
        ("env_target.pfm", np.full((72, 192, 3), -1.0)),
        ("alpha.pfm", np.full((2, 2), 1.5)),
    ], ids=["normal", "albedo", "rough", "rerender", "env", "mask_shape", "mask_binary",
            "env_negative", "alpha_above_one"])
    def test_metrics_names_the_rejected_file(self, scene_dir, tmp_path, name, data):
        pred = tmp_path / "pred"
        pred.mkdir()
        vio.write_pfm(pred / name, data)
        with pytest.raises(ValueError, match=re.escape(str(pred / name))):
            main(["metrics", "--scene", str(scene_dir), "--pred", str(pred)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_metrics_rejects_a_non_finite_alpha(self, scene_dir, tmp_path, bad):
        # write_pfm refuses non-finite data, so the file is written by hand
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "alpha.pfm").write_bytes(b"Pf\n2 1\n-1.0\n"
                                         + np.array([0.5, bad], "<f4").tobytes())
        with pytest.raises(ValueError, match=re.escape(str(pred / "alpha.pfm")) + ": map"):
            main(["metrics", "--scene", str(scene_dir), "--pred", str(pred)])
