"""DMSG state initialisation.

DMSG state reuses :class:`repro.mog.params.MixtureState` with ``K = 2``
and the weight plane reinterpreted as the mode **age** (the sample
count feeding the ``rho = 1/age`` running average):

========  ======================  =============================
plane     MoG meaning             DMSG meaning
========  ======================  =============================
``w``     component weight        mode age (frames absorbed)
``m``     component mean          mode mean
``sd``    component std dev       mode std dev
========  ======================  =============================

Row 0 is the apparent background, row 1 the candidate. Reusing the
container keeps every layer that moves state around — AoS/SoA device
layouts, checkpoint files, ``state_snapshot`` tuples, the compiled
kernel signature — family-agnostic.
"""

from __future__ import annotations

import numpy as np

from ..config import MoGParams, resolve_dtype
from ..mog.params import MixtureState

#: Modes per pixel: background + candidate.
DMSG_NUM_MODES = 2


def dmsg_state_from_first_frame(
    frame: np.ndarray,
    params: MoGParams,
    dtype: str | np.dtype = "double",
) -> MixtureState:
    """Initial DMSG state: the background mode is centred on the first
    frame with age 1; the candidate starts *empty* (age 0), so it can
    never match until a background miss re-seeds it."""
    dt = resolve_dtype(dtype)
    pixels = np.asarray(frame, dtype=dt).reshape(-1)
    n = pixels.shape[0]
    w = np.zeros((DMSG_NUM_MODES, n), dtype=dt)
    m = np.zeros((DMSG_NUM_MODES, n), dtype=dt)
    sd = np.full((DMSG_NUM_MODES, n), dt.type(params.initial_sd), dtype=dt)
    w[0] = dt.type(1.0)
    m[0] = pixels
    m[1] = pixels
    return MixtureState(w, m, sd)
