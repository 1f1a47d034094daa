"""Kernel IR: one canonical kernel spec + composable passes.

The paper's levels A..G are *cumulative transformations* of a single
per-pixel background-subtraction kernel (Tables II/III).  This module
makes that structure explicit instead of encoding it as near-duplicate
kernel modules: a declarative :class:`KernelSpec` describes the
canonical kernel along the axes the paper varies, and each optimization
is a :class:`KernelPass` — a *pure* ``KernelSpec -> KernelSpec``
transform with a name, the paper level it realizes, and a cost/benefit
note.

The background model itself is an IR axis too: :class:`ModelFamily`
describes a per-pixel model (state schema, match/update semantics,
classify rule) and every spec carries one as ``spec.model``.  Two
families are registered:

* ``"mog"`` — the paper's Stauffer-Grimson mixture of Gaussians
  (K weighted components per pixel; the default, so every pre-existing
  caller is unchanged);
* ``"dmsg"`` — the dual-mode single Gaussian (one running mean/variance
  background mode plus an age-gated candidate mode that swaps in on
  scene change) — far cheaper per pixel, the serving tier's low-cost
  degrade target.

Two independent emitters consume the same spec:

* :mod:`repro.kernels.build` emits the simulated-GPU DSL kernel;
* :mod:`repro.cudagen` renders real CUDA C source, whose per-pixel
  fragments :mod:`repro.cpu.native` also compiles into the host loops
  the cpu backend runs.

Because the spec is data, pass subsets the paper never measured (e.g.
``A + predication`` without sort elimination) are one
:func:`apply_passes` call away — see
:func:`repro.core.variants.custom_level` — and so are cross-family
stacks like ``dmsg:A+predication``.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

from ..errors import ConfigError

#: Legal values of the spec axes.
LAYOUTS = ("aos", "soa")
UPDATES = ("branchy", "predicated")
SCANS = ("break", "flat", "recompute")
TILINGS = ("none", "shared", "registers")

#: Downstream per-pixel stages the fusion pass can weld onto the frame
#: body, in canonical dataflow order: the foreground threshold needs
#: the background estimate, the shadow test refines the thresholded
#: mask, and the class write consumes both.
FUSED_STAGES = ("threshold", "shadow", "histogram")


def canonical_fused_stages(stages) -> tuple[str, ...]:
    """Normalise a fused-stage selection to canonical dataflow order."""
    seq = tuple(str(s) for s in stages)
    unknown = sorted(set(seq) - set(FUSED_STAGES))
    if unknown:
        raise ConfigError(
            f"unknown fused stage(s) {unknown}; expected a subset of "
            f"{FUSED_STAGES}"
        )
    if len(set(seq)) != len(seq):
        raise ConfigError(f"duplicate fused stages in {seq}")
    return tuple(s for s in FUSED_STAGES if s in seq)


class PassError(ConfigError):
    """A pass was applied to a spec that does not satisfy its
    prerequisites (e.g. register reduction before predication)."""


# ----------------------------------------------------------------------
# Model families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelFamily:
    """One per-pixel background-model family the kernel IR can emit.

    A family fixes what the three per-pixel state planes *mean*, how a
    pixel is matched against and folded into the model, and how the
    foreground decision is made.  The optimization passes are layout /
    control-flow / residency transforms and are (mostly) orthogonal to
    the family; each :class:`KernelPass` declares which families it
    applies to.

    Attributes
    ----------
    name:
        Registry key, CLI spelling and kernel-name prefix
        (``{name}_coalesced`` …).
    title:
        Human-readable family name.
    state_planes:
        Semantic role of the three ``(K, N)`` per-pixel state planes.
        Both families use the same physical triple (so layouts,
        checkpoints and the compiled kernel signature are shared); only the
        interpretation differs.
    num_components:
        Fixed per-pixel component count, or ``None`` to use
        ``params.num_gaussians`` (the MoG case).
    supports_sort:
        Whether rank/sort semantics exist for this family (MoG's
        ``w/sd`` rank; DMSG has nothing to sort).
    match_rule, update_rule, classify_rule:
        One-line semantics, shown by ``repro levels`` and the docs.
    """

    name: str
    title: str
    state_planes: tuple[str, str, str]
    num_components: int | None
    supports_sort: bool
    match_rule: str
    update_rule: str
    classify_rule: str

    def component_count(self, params) -> int:
        """Per-pixel components for ``params`` (a
        :class:`~repro.config.MoGParams`)."""
        if self.num_components is not None:
            return self.num_components
        return params.num_gaussians

    def default_params(self):
        """Family-tuned default :class:`~repro.config.MoGParams`."""
        from ..config import MoGParams

        if self.name == "dmsg":
            # DMSG adapts via its age-based learning rate; the shared
            # learning_rate field is unused.  A slightly tighter match
            # band suits the single-mode model.
            return MoGParams()
        return MoGParams()


MOG_FAMILY = ModelFamily(
    name="mog",
    title="mixture of Gaussians (Stauffer-Grimson)",
    state_planes=("weight", "mean", "sd"),
    num_components=None,
    supports_sort=True,
    match_rule="|x - mean_k| < gamma1 * sd_k for any component k",
    update_rule=(
        "matched components blend toward x with rho = min(oma/w, 1); "
        "all weights decay by alpha; a total miss replaces the "
        "weakest component"
    ),
    classify_rule=(
        "background iff any component with w >= gamma2 matches "
        "(OR over k)"
    ),
)

DMSG_FAMILY = ModelFamily(
    name="dmsg",
    title="dual-mode single Gaussian",
    state_planes=("age", "mean", "sd"),
    num_components=2,
    supports_sort=False,
    match_rule="|x - mean_bg| < gamma1 * sd_bg against the background mode",
    update_rule=(
        "the matched mode blends with the age-based rate rho = "
        "1/min(age+1, age_cap); a background miss feeds (or resets) the "
        "candidate mode, which swaps in once its age exceeds the "
        "background's (scene-change adaptation)"
    ),
    classify_rule="foreground iff the pixel missed the background mode",
)

#: Registered model families by name.
MODEL_FAMILIES: dict[str, ModelFamily] = {
    f.name: f for f in (MOG_FAMILY, DMSG_FAMILY)
}


def resolve_model(model) -> ModelFamily:
    """Normalise a family designator (name or instance) to a
    :class:`ModelFamily`."""
    if isinstance(model, ModelFamily):
        return model
    key = str(model).strip().lower()
    try:
        return MODEL_FAMILIES[key]
    except KeyError:
        raise ConfigError(
            f"unknown model family {model!r}; expected one of "
            f"{sorted(MODEL_FAMILIES)}"
        ) from None


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one background-subtraction kernel
    variant.

    The per-pixel semantics come from ``model`` (a
    :class:`ModelFamily`); the remaining fields are the axes along
    which the paper's optimization levels differ.

    Attributes
    ----------
    name:
        Kernel symbol name (also the simulated kernel's ``__name__``).
        Passes derive new names from ``model.name``, so family-neutral
        code never sees a hard-coded ``mog_*`` prefix.
    model:
        The background-model family (default: MoG, so existing callers
        and serialized level expressions are unchanged).
    layout:
        Per-pixel parameter memory layout: ``"aos"`` (level A) or
        ``"soa"`` (coalesced, level B+).
    update:
        Match/update style: ``"branchy"`` (Algorithm 4, levels A-D) or
        ``"predicated"`` (Algorithm 5, levels E+).
    sort:
        Whether the rank + stable bubble sort runs (levels A-C).
        Only meaningful for families with ``supports_sort``.
    scan:
        Foreground decision: ``"break"`` (early-exit Algorithm 2),
        ``"flat"`` (unconditional Algorithm 3) or ``"recompute"``
        (flat scan with ``|x - mean|`` recomputed from the updated
        means instead of a live ``diff[]`` array — level F).
    overlapped:
        Host pipeline overlaps DMA with kernel execution (level C).
        Purely host-side; does not change the kernel body.
    tiling:
        Frame-group parameter residency: ``"none"`` (one frame per
        launch), ``"shared"`` (parameters staged through shared memory
        per tile, level G) or ``"registers"`` (parameters pinned in
        registers across the group — the design-space ablation the
        paper did not explore).
    fused:
        Downstream per-pixel stages welded onto the frame body by the
        fusion pass (a subset of :data:`FUSED_STAGES` in canonical
        order). Each fused stage consumes the background estimate and
        mask *while they are still live in registers*, eliminating the
        full-frame global-memory round trip a standalone post kernel
        would pay.
    """

    name: str = "mog_base"
    model: ModelFamily = MOG_FAMILY
    layout: str = "aos"
    update: str = "branchy"
    sort: bool = True
    scan: str = "break"
    overlapped: bool = False
    tiling: str = "none"
    fused: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @property
    def keep_diff(self) -> bool:
        """Whether the per-component ``diff[]`` array stays live from
        the update loop to the foreground scan."""
        return self.scan != "recompute"

    @property
    def group_structured(self) -> bool:
        """Whether the kernel processes frame *groups* per launch."""
        return self.tiling != "none"

    # ------------------------------------------------------------------
    def validate(self) -> "KernelSpec":
        """Check internal consistency; returns ``self`` for chaining."""
        if not isinstance(self.model, ModelFamily):
            raise ConfigError(
                f"model must be a ModelFamily, got {self.model!r} "
                "(use resolve_model)"
            )
        if self.layout not in LAYOUTS:
            raise ConfigError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if self.update not in UPDATES:
            raise ConfigError(f"update must be one of {UPDATES}, got {self.update!r}")
        if self.scan not in SCANS:
            raise ConfigError(f"scan must be one of {SCANS}, got {self.scan!r}")
        if self.tiling not in TILINGS:
            raise ConfigError(f"tiling must be one of {TILINGS}, got {self.tiling!r}")
        if self.sort and not self.model.supports_sort:
            raise ConfigError(
                f"model family {self.model.name!r} has no rank/sort "
                "semantics; sort=True is invalid"
            )
        if self.model.supports_sort and self.sort != (self.scan == "break"):
            raise ConfigError(
                "rank/sort exists only to serve the early-exit scan: "
                f"sort={self.sort} is inconsistent with scan={self.scan!r}"
            )
        if self.scan == "recompute" and self.update != "predicated":
            raise ConfigError(
                "the recompute scan drops the diff[] array, which the "
                "branchy update's virtual component still writes; apply "
                "predication before register reduction"
            )
        if self.tiling != "none":
            if self.layout != "soa":
                raise ConfigError("tiled kernels require the SoA layout")
            if self.scan != "recompute":
                raise ConfigError(
                    "tiled kernels stage only the parameter triple, not "
                    "diff[]; apply register reduction before tiling"
                )
        if tuple(self.fused) != canonical_fused_stages(self.fused):
            raise ConfigError(
                f"fused stages {self.fused} must be a subset of "
                f"{FUSED_STAGES} in canonical order"
            )
        return self

    def replace(self, **changes) -> "KernelSpec":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes).validate()


#: The canonical level-A MoG kernel every default pass stack starts
#: from (kept for the many existing callers; family-aware code should
#: use :func:`base_spec_for`).
BASE_SPEC = KernelSpec()


def base_spec_for(model) -> KernelSpec:
    """The canonical level-A base spec of one model family.

    MoG starts from the paper's sorted early-exit kernel; DMSG has no
    rank/sort, so its base is an unsorted flat-scan kernel (the
    equivalent control-flow shape after the family's semantics are
    substituted).
    """
    fam = resolve_model(model)
    if fam.supports_sort:
        return KernelSpec(name=f"{fam.name}_base", model=fam)
    return KernelSpec(
        name=f"{fam.name}_base", model=fam, sort=False, scan="flat"
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class KernelPass:
    """A named, pure ``KernelSpec -> KernelSpec`` transform.

    Class attributes describe the pass; :meth:`apply` performs it.
    Calling the pass validates the result, so an ill-ordered stack
    fails loudly instead of emitting a silently wrong kernel.

    ``families`` declares which model families the pass applies to.
    Applying a pass to a spec of a family it does not cover is a
    **no-op with a warning** (not an error): cumulative level stacks
    like ``dmsg:F`` fold over the full paper stack, and a family
    simply skips the transforms that have no meaning for it.
    """

    #: Registry name (also the CLI spelling).
    name: str = ""
    #: Paper level this pass realizes, or ``None`` for ablation passes.
    level: str | None = None
    #: The cumulative-optimizations keyword it contributes
    #: (``LevelSpec.enables``).
    enables: str = ""
    #: Row title in the paper's Table II/III, or ``None``.
    table: str | None = None
    #: One-line cost/benefit note (shown by ``repro levels``).
    note: str = ""
    #: Model families the pass applies to (all registered ones unless
    #: narrowed by the subclass).
    families: tuple[str, ...] = ("mog", "dmsg")

    def __call__(self, spec: KernelSpec) -> KernelSpec:
        if spec.model.name not in self.families:
            warnings.warn(
                f"kernel pass {self.name!r} does not apply to model "
                f"family {spec.model.name!r}; skipping (no-op)",
                RuntimeWarning,
                stacklevel=2,
            )
            return spec
        return self.apply(spec).validate()

    def apply(self, spec: KernelSpec) -> KernelSpec:
        raise NotImplementedError

    def _require(self, cond: bool, spec: KernelSpec, why: str) -> None:
        if not cond:
            raise PassError(
                f"pass {self.name!r} cannot apply to {spec.name!r}: {why}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelPass {self.name}>"


class SoALayoutPass(KernelPass):
    name = "soa-layout"
    level = "B"
    enables = "coalescing"
    table = "Memory Coalescing"
    note = ("structure-of-arrays parameters: each warp request becomes "
            "contiguous (18 -> 2 transactions/warp for doubles)")

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(spec.layout == "aos", spec, "layout is already SoA")
        return spec.replace(layout="soa", name=f"{spec.model.name}_coalesced")


class TransferOverlapPass(KernelPass):
    name = "overlap"
    level = "C"
    enables = "overlap"
    table = "Overlapped Execution"
    note = ("host-side double buffering overlaps frame DMA with kernel "
            "execution (paper Fig 5b); the kernel body is unchanged")

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(not spec.overlapped, spec, "overlap is already enabled")
        return spec.replace(overlapped=True)


class SortEliminationPass(KernelPass):
    name = "sort-elimination"
    level = "D"
    enables = "no-sort"
    table = "Branch Reduction"
    note = ("the foreground OR is order-independent on a GPU: drop rank, "
            "bubble sort and the early-exit branches (pure divergence)")
    #: MoG-only: DMSG has no rank/sort to eliminate (its base spec is
    #: already unsorted), so on DMSG this pass is a no-op with warning.
    families = ("mog",)

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(spec.sort, spec, "the sort was already eliminated")
        return spec.replace(
            sort=False, scan="flat", name=f"{spec.model.name}_nosort"
        )


class PredicationPass(KernelPass):
    name = "predication"
    level = "E"
    enables = "predication"
    table = "Predicated Execution"
    note = ("blend updates with the 0/1 match predicate (Algorithm 5): "
            "every lane runs the same instructions, branch efficiency "
            "~99.5%, at the cost of computing unused update values")

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(spec.update == "branchy", spec,
                      "updates are already predicated")
        return spec.replace(
            update="predicated", name=f"{spec.model.name}_predicated"
        )


class RegisterReductionPass(KernelPass):
    name = "register-reduction"
    level = "F"
    enables = "register-reduction"
    table = "Register Reduction"
    note = ("recompute |x - mean| at the scan instead of keeping diff[] "
            "live: arithmetic is cheaper than occupying a register; the "
            "freed registers raise occupancy (paper Fig 7c)")

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(spec.update == "predicated", spec,
                      "register reduction builds on the predicated update")
        self._require(spec.scan == "flat", spec,
                      "register reduction replaces the flat stored-diff scan")
        return spec.replace(
            scan="recompute", name=f"{spec.model.name}_regopt"
        )


class TilingPass(KernelPass):
    name = "tiling"
    level = "G"
    enables = "tiling"
    table = None
    note = ("stage each tile's parameters in shared memory and process a "
            "frame group per launch: parameter DRAM traffic divided by "
            "the group size, at the cost of occupancy and group latency")

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(spec.tiling == "none", spec, "tiling already applied")
        return spec.replace(tiling="shared", name=f"{spec.model.name}_tiled")


class RegisterTilingPass(KernelPass):
    name = "register-tiling"
    level = None
    enables = "register-tiling"
    table = None
    note = ("ablation: keep the group's parameters in registers instead "
            "of shared memory — faster at 3 Gaussians, impossible at 5 "
            "(register ceiling), which justifies the paper's design")

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(spec.tiling == "none", spec, "tiling already applied")
        return spec.replace(
            tiling="registers", name=f"{spec.model.name}_tiled_regs"
        )


class FusionPass(KernelPass):
    name = "fusion"
    level = None
    enables = "fusion"
    table = None
    note = ("weld the per-pixel consumers (foreground threshold, shadow "
            "test, class-histogram write) onto the frame body: each "
            "fused stage drops one full-frame global read+write")

    def __init__(self, stages=FUSED_STAGES) -> None:
        #: The stages to fuse; the registry instance fuses all of them,
        #: ablation sweeps construct instances with subsets.
        self.stages = canonical_fused_stages(stages)

    def apply(self, spec: KernelSpec) -> KernelSpec:
        self._require(not spec.fused, spec, "fusion already applied")
        self._require(bool(self.stages), spec, "no stages to fuse")
        return spec.replace(fused=self.stages, name=spec.name + "_fused")


#: All passes in canonical (paper) application order.
PASS_REGISTRY: dict[str, KernelPass] = {
    p.name: p
    for p in (
        SoALayoutPass(),
        TransferOverlapPass(),
        SortEliminationPass(),
        PredicationPass(),
        RegisterReductionPass(),
        TilingPass(),
        RegisterTilingPass(),
        FusionPass(),
    )
}

#: Pass stacks realizing the paper's levels (A is the empty stack).
LEVEL_PASSES: dict[str, tuple[str, ...]] = {
    "A": (),
    "B": ("soa-layout",),
    "C": ("soa-layout", "overlap"),
    "D": ("soa-layout", "overlap", "sort-elimination"),
    "E": ("soa-layout", "overlap", "sort-elimination", "predication"),
    "F": ("soa-layout", "overlap", "sort-elimination", "predication",
          "register-reduction"),
    "G": ("soa-layout", "overlap", "sort-elimination", "predication",
          "register-reduction", "tiling"),
}


def resolve_pass(p: str | KernelPass) -> KernelPass:
    """Look up a pass by name (pass instances pass through)."""
    if isinstance(p, KernelPass):
        return p
    try:
        return PASS_REGISTRY[p]
    except KeyError:
        raise PassError(
            f"unknown kernel pass {p!r}; expected one of "
            f"{sorted(PASS_REGISTRY)}"
        ) from None


def applicable_passes(
    passes, model
) -> tuple[str, ...]:
    """Filter a pass-name stack down to the passes that apply to
    ``model`` (level registries use this to build family-accurate
    descriptions without triggering the no-op warning)."""
    fam = resolve_model(model)
    return tuple(
        p for p in passes if fam.name in resolve_pass(p).families
    )


def apply_passes(
    spec: KernelSpec, passes: tuple[str | KernelPass, ...] | list
) -> KernelSpec:
    """Fold a pass stack over ``spec`` (each pass validates its output)."""
    spec.validate()
    for p in passes:
        spec = resolve_pass(p)(spec)
    return spec


def spec_for_level(letter: str, model=MOG_FAMILY) -> KernelSpec:
    """The canonical spec of one paper level, built from its pass stack.

    ``model`` selects the family; the default is MoG so every existing
    caller keeps its behavior (the pre-family signature
    ``spec_for_level(letter)`` is the compatibility shim — new code
    should pass the family explicitly).  Passes that do not apply to
    the family are skipped silently (they are cumulative-stack
    definitions, not explicit requests).
    """
    fam = resolve_model(model)
    key = str(letter).strip().upper()
    if key not in LEVEL_PASSES:
        raise ConfigError(
            f"unknown optimization level {letter!r}; expected one of "
            f"{sorted(LEVEL_PASSES)}"
        )
    stack = applicable_passes(LEVEL_PASSES[key], fam)
    return apply_passes(base_spec_for(fam), stack)


# ----------------------------------------------------------------------
# Derived metadata
# ----------------------------------------------------------------------
def oracle_variant_for(spec: KernelSpec) -> str:
    """The functionally equivalent vectorized-oracle variant (the CPU
    backend and the kernels' bit-exactness oracle).

    MoG maps to a :mod:`repro.mog.vectorized` variant; DMSG's branchy
    and predicated forms are state-identical by construction, so the
    single :mod:`repro.dmsg.vectorized` implementation (``"dual"``)
    covers every DMSG spec.
    """
    if spec.model.name == "dmsg":
        return "dual"
    if spec.scan == "recompute":
        return "regopt"
    if spec.sort:
        return "sorted"
    return "nosort" if spec.update == "branchy" else "predicated"


def mog_variant_for(spec: KernelSpec) -> str:
    """Deprecated alias of :func:`oracle_variant_for` (predates model
    families; kept for existing callers)."""
    return oracle_variant_for(spec)


def register_model_for(spec: KernelSpec) -> str:
    """The :func:`repro.gpusim.registers.pinned_registers` level whose
    register model fits this spec (exact for the paper levels; the
    closest cumulative level for custom pass subsets)."""
    if spec.tiling != "none":
        return "G"
    if spec.scan == "recompute":
        return "F"
    if spec.update == "predicated":
        return "E"
    if not spec.sort and spec.model.supports_sort:
        return "D"
    if spec.layout == "soa":
        return "C" if spec.overlapped else "B"
    return "A"
