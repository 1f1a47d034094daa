"""Dual-mode single Gaussian (DMSG) background subtraction.

The second background-model family of the kernel IR (see
:mod:`repro.kernels.ir`), after the paper's Mixture of Gaussians. The
model follows the motion-masking formulation of "An Analysis of
Parallelized Motion Masking Using Dual-Mode Single Gaussian Models"
(PAPERS.md): each pixel keeps exactly **two** Gaussian modes,

* an *apparent background* mode ``(age, mean, sd)`` that classifies
  the pixel and absorbs matching samples with a running
  ``rho = 1/age`` average, and
* a *candidate* mode that accumulates evidence for a competing scene
  (a parked car, a new illumination plateau) and **swaps in** as the
  background once its age exceeds the background's.

One mode pair per pixel instead of K ranked components makes DMSG far
cheaper per frame than MoG — it is the serving tier's low-cost degrade
target — at a quality cost the model × level × scenario matrix
(``repro experiments models``) makes explicit.

This package mirrors :mod:`repro.mog`'s role: it holds the vectorized
NumPy oracle (:class:`DmsgVectorized`) the simulated-GPU emitter and
the CPU engine (:class:`repro.cpu.engine.DmsgEngine`) are
pinned bit-identical against, and the state initialiser shared by every
execution path.
"""

from .state import dmsg_state_from_first_frame
from .vectorized import DmsgVectorized

__all__ = ["DmsgVectorized", "dmsg_state_from_first_frame"]
