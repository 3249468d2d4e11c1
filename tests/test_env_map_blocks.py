"""per_pixel_env_maps culls and traces in blocks: its memory stays near its
output, and the block sizes do not change a bit of it."""

import tracemalloc

import pytest
from test_scene import view_surface

from voxlight import scene as scene_module
from voxlight.scene import SceneSpec, per_pixel_env_maps

SPECS = [SceneSpec(), SceneSpec(wall_offset=2.0)]
IDS = ["plane", "wall"]


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_peak_memory_is_output_plus_one_block(spec):
    points, normals = view_surface(spec)
    tracemalloc.start()
    try:
        out = per_pixel_env_maps(spec, points, normals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output is 14.75 MB and one full-size (pixel, texel) float array 4.9
    # MB: 8 MB more admits one block's temporaries, not two full-size arrays
    assert peak - out.nbytes <= 8e6, (peak, out.nbytes)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_block_boundaries_leave_every_bit(spec, monkeypatch):
    points, normals = view_surface(spec)
    want = per_pixel_env_maps(spec, points, normals)
    texels = spec.env_height * spec.env_width
    pixels = spec.image_height * spec.image_width
    for budget, block in ((1000, 7), (100, 1)):
        # cull blocks of 7 pixels, the last one short, then of 1 pixel; sub-ray
        # chunks of 111 and 11 (pixel, texel) pairs end inside a pixel's texels
        assert max(budget // texels, 1) == block and (block == 1 or pixels % block)
        monkeypatch.setattr(scene_module, "_CHUNK_SUB_RAYS", budget)
        got = per_pixel_env_maps(spec, points, normals)
        assert got.tobytes() == want.tobytes(), budget
