"""Mixture-of-Gaussians background subtraction (Stauffer-Grimson).

This package implements Algorithm 1 of the paper in two executable
forms with pinned, test-enforced semantics (see :mod:`repro.mog.update`
for the exact update equations and evaluation order):

* :mod:`repro.mog.reference` — a literal scalar per-pixel translation
  of Algorithm 1 (with ranking, sorting and early exit). Slow; used as
  ground truth in tests at small frame sizes.
* :mod:`repro.mog.vectorized` — NumPy-vectorized implementations of the
  four algorithmic variants the paper's optimization levels use:

  ==========  =========================================================
  variant     corresponds to
  ==========  =========================================================
  sorted      levels A/B/C — rank + sort + early-exit foreground scan
  nosort      level D — unconditional check of all components
  predicated  level E — Algorithm 5's assignment-level predication
  regopt      level F — ``diff`` recomputed from the *updated* means
  ==========  =========================================================

  All four produce identical foreground decisions: the scan is an
  order-independent OR, and the regopt rule is provably equivalent to
  the stored-diff rule under these update equations (see
  :mod:`repro.mog.update`, step 6 note).

These are the readable oracles. The CPU backend runs the in-place,
cache-blocked :class:`repro.cpu.engine.MoGEngine` at levels D-G, which
is bit-identical to the ``nosort``/``predicated``/``regopt`` variants.
"""

from .params import MixtureState
from .reference import MoGReference
from .vectorized import VARIANTS, MoGVectorized

__all__ = ["MixtureState", "MoGReference", "MoGVectorized", "VARIANTS"]
