"""Automotive interferometric SAR elevation mapping.

End-to-end pipeline: synthesize dechirped FMCW captures for point-target
scenes, form one complex SAR image per virtual element by direct
backprojection, extract per-pixel elevation from vertical-baseline phase
delays, and emit filtered 3D point clouds.
"""

from .errors import ConfigError, DataFormatError, DomainError, InsarError
from .imaging import (
    Aperture,
    ImageGrid,
    RangeProfileSet,
    SarImageStack,
    image_stack,
    predicted_azimuth_resolution,
    range_compress,
)
from .interferometry import (
    ElevationMap,
    build_elevation_map,
    elevation_from_phase,
    mean_phase_delay,
    phase_delay,
    phase_from_elevation,
    snr_map,
    tau_from_elevation,
)
from .pointcloud import (
    ElevationPointCloud,
    FilterConfig,
    filter_points,
    read_pcd,
    spherical_to_cartesian,
    write_csv,
    write_pcd,
)
from .simulate import (
    PulseRecord,
    RawCapture,
    Scene,
    add_noise,
    synthesize_capture,
    synthesize_chirp,
)
from .types import (
    C_LIGHT,
    ChirpConfig,
    DerivedChirpParams,
    Pose,
    Trajectory,
    VerticalBaseline,
    VirtualArray,
    build_virtual_array,
    default_virtual_array,
    derive_chirp_params,
    pose_at_time,
)

__version__ = "0.1.0"

__all__ = [
    "Aperture",
    "C_LIGHT",
    "ChirpConfig",
    "ConfigError",
    "DataFormatError",
    "DerivedChirpParams",
    "DomainError",
    "ElevationMap",
    "ElevationPointCloud",
    "FilterConfig",
    "ImageGrid",
    "InsarError",
    "Pose",
    "PulseRecord",
    "RangeProfileSet",
    "RawCapture",
    "SarImageStack",
    "Scene",
    "Trajectory",
    "VerticalBaseline",
    "VirtualArray",
    "add_noise",
    "build_elevation_map",
    "build_virtual_array",
    "default_virtual_array",
    "derive_chirp_params",
    "elevation_from_phase",
    "filter_points",
    "image_stack",
    "mean_phase_delay",
    "phase_delay",
    "phase_from_elevation",
    "pose_at_time",
    "predicted_azimuth_resolution",
    "range_compress",
    "read_pcd",
    "snr_map",
    "spherical_to_cartesian",
    "synthesize_capture",
    "synthesize_chirp",
    "tau_from_elevation",
    "write_csv",
    "write_pcd",
]
