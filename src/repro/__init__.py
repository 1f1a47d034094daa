"""repro - reproduction of "A GPU-based Algorithm-specific Optimization
for High-performance Background Subtraction" (Zhang, Tabkhi, Schirner;
ICPP 2014).

The package bundles:

* a Mixture-of-Gaussians background subtractor with the paper's four
  algorithmic variants (:mod:`repro.mog`),
* a Fermi-class SIMT GPU functional + performance simulator standing in
  for the paper's Tesla C2075 (:mod:`repro.gpusim`),
* the seven optimization levels A..G as simulated CUDA kernels
  (:mod:`repro.kernels`, :mod:`repro.core`),
* synthetic video workloads with ground truth (:mod:`repro.video`),
* SSIM / MS-SSIM quality metrics (:mod:`repro.metrics`),
* CPU baseline models and the compiled CPU engines (:mod:`repro.cpu`),
* single-stream, thread-pool and sharded serving tiers
  (:mod:`repro.core.stream`, :mod:`repro.serve`),
* the experiment harness regenerating every table and figure of the
  paper's evaluation (:mod:`repro.bench`).

Quickstart::

    from repro import BackgroundSubtractor
    from repro.video import surveillance_scene

    video = surveillance_scene(num_frames=30)
    bs = BackgroundSubtractor(video.shape, level="F")
    masks, report = bs.process(video)
    print(report.summary())
"""

from .config import (
    ControllerConfig,
    FaultPolicy,
    FusionParams,
    MoGParams,
    RunConfig,
    ServeConfig,
    TelemetryConfig,
)
from .core import BackgroundSubtractor, OptimizationLevel, RunReport
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "BackgroundSubtractor",
    "OptimizationLevel",
    "RunReport",
    "MoGParams",
    "FusionParams",
    "RunConfig",
    "FaultPolicy",
    "ControllerConfig",
    "ServeConfig",
    "TelemetryConfig",
    "ReproError",
    "__version__",
]
