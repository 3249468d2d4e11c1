"""voxlight: spherical-Gaussian and volumetric lighting toolkit.

Lighting representations (SG environments, VSG voxel volumes), a microfacet
rendering layer, multi-view geometry utilities, inverse-rendering losses,
surface-volume construction, and a sphere-insertion renderer, with
gradient-based fitters for the lighting representations.
"""

from .aggregation import FeatureSet, aggregate, weighted_moments
from .brdf import (F0_DEFAULT, MaterialSample, SpecFeatureInput, lobe_mask, render_diffuse,
                   render_specular, rerender_pixel, spec_feature_batch, spec_feature_inputs)
from .geometry import (Camera, Reprojection, View, ViewBundle, bilinear_sample,
                       depth_to_normal, multiview_weights, projection_error,
                       reproject, sample_view)
from .insertion import (DiffuseMaterial, InsertedSphere, MirrorMaterial, insert_object,
                        shade_sphere_pixel)
from .metrics import (DEFAULT_BETAS, StageLossBundle, brdf_loss, entropy_reg, ls_scale,
                      masked_l1_angular, masked_mse, normal_loss, si_log_mse, si_mse,
                      stage_losses)
from .optim import FitReport, minimize_monotone
from .pipeline import DemoConfig, PipelineReport, pipeline_demo
from .scene import GeneratedScene, SceneSpec, generate_scene, per_pixel_env_maps
from .sg import (EnvMapGrid, Frame, SGEnvironment, SGFitOptions, SGFitResult,
                 eval_env, fibonacci_hemisphere, rasterize_env,
                 sg_fit, sg_fit_batch, texel_directions, texel_solid_angles)
from .surface import SurfaceVolume, build_surface_volume
from .volume import (Bounds, EnvTarget, Ray, VSGFitOptions, VSGFitResult,
                     VSGVolume, composite_ray, extract_env_map, vsg_fit)

__version__ = "0.1.0"
