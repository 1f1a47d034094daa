"""The paper's optimization levels A..G, derived from pass stacks.

Tables II and III of the paper define the levels cumulatively.  Each
:class:`OptimizationLevel` member wraps a :class:`LevelSpec` that is
*derived* from its kernel-pass stack (:mod:`repro.kernels.ir`): the
memory layout, host-pipeline overlap, equivalent vectorized variant,
kernel factory and Table II/III rows all come from the passes, so the
level registry cannot drift from what the kernels actually do.

Arbitrary pass subsets the paper never measured are first-class too:
:func:`custom_level` builds a :class:`LevelSpec` from any valid stack
(e.g. ``A + predication`` without sort elimination), and every consumer
— :class:`~repro.core.pipeline.HostPipeline`,
:class:`~repro.core.subtractor.BackgroundSubtractor`, the bench harness
and the CLI — accepts it wherever a level letter is accepted (the CLI
spelling is ``"A+predication"``; see :func:`resolve_level_spec`).

The background-model family is a level axis too: ``"dmsg:F"`` resolves
level F's pass stack against the dual-mode single Gaussian family
(passes with no meaning for the family — sort elimination — are
skipped), and ``"dmsg:A+predication"`` builds a custom DMSG stack.
A bare designator means MoG, so every pre-existing spelling is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

from ..errors import ConfigError
from ..kernels.build import build_group_kernel, build_kernel
from ..kernels.ir import (
    BASE_SPEC,
    LEVEL_PASSES,
    MOG_FAMILY,
    PASS_REGISTRY,
    KernelSpec,
    ModelFamily,
    applicable_passes,
    apply_passes,
    base_spec_for,
    oracle_variant_for,
    register_model_for,
    resolve_model,
    resolve_pass,
)

#: A kernel factory: ``factory(layout, cfg, frame_buf, fg_buf)`` for
#: per-frame kernels, ``factory(layout, cfg, frame_bufs, fg_bufs,
#: tile_pixels=...)`` for group-structured ones.
KernelFactory = Callable[..., Callable]


@dataclass(frozen=True)
class LevelSpec:
    """Static description of one optimization level (paper or custom).

    Only identity and provenance are stored; everything operational —
    layout, overlap, kernel factory, equivalent vectorized variant —
    is derived from the pass stack's :class:`KernelSpec`.
    """

    letter: str
    title: str
    group: str  # "base" | "general" | "algorithm-specific" | "shared-memory" | "custom"
    passes: tuple[str, ...]  # kernel-pass stack (names, in order)
    kernel: KernelSpec = field(repr=False)
    paper_speedup: float | None  # Fig 8a / Fig 10a; None for custom levels

    # -- derived properties -------------------------------------------
    @property
    def model(self) -> ModelFamily:
        """Background-model family this level's kernel implements."""
        return self.kernel.model

    @property
    def layout(self) -> str:
        """Parameter memory layout: ``"aos"`` or ``"soa"``."""
        return self.kernel.layout

    @property
    def overlapped(self) -> bool:
        """Host pipeline overlaps DMA with kernels (level C+)."""
        return self.kernel.overlapped

    @property
    def group_structured(self) -> bool:
        """Kernel processes frame groups per launch (level G)."""
        return self.kernel.group_structured

    @property
    def oracle_variant(self) -> str:
        """Functionally equivalent vectorized-oracle variant (a
        :mod:`repro.mog.vectorized` variant for MoG, ``"dual"`` for
        DMSG)."""
        return oracle_variant_for(self.kernel)

    @property
    def mog_variant(self) -> str:
        """Deprecated alias of :attr:`oracle_variant` (predates model
        families)."""
        return oracle_variant_for(self.kernel)

    @property
    def register_model(self) -> str:
        """Level letter keying the pinned-registers model."""
        return register_model_for(self.kernel)

    @property
    def enables(self) -> tuple[str, ...]:
        """Cumulative optimizations switched on (pass metadata)."""
        return ("base",) + tuple(
            PASS_REGISTRY[name].enables for name in self.passes
        )

    @property
    def kernel_factory(self) -> KernelFactory:
        """Factory building this level's simulated kernel."""
        if self.kernel.group_structured:
            return partial(build_group_kernel, self.kernel)
        return partial(build_kernel, self.kernel)

    def describe(self) -> dict:
        """JSON-friendly summary (the ``repro levels`` payload)."""
        return {
            "letter": self.letter,
            "title": self.title,
            "group": self.group,
            "model": self.model.name,
            "passes": list(self.passes),
            "kernel": self.kernel.name,
            "layout": self.layout,
            "overlapped": self.overlapped,
            "group_structured": self.group_structured,
            "fused": list(self.kernel.fused),
            "oracle_variant": self.oracle_variant,
            "mog_variant": self.mog_variant,
            "enables": list(self.enables),
            "paper_speedup": self.paper_speedup,
            "backends": backend_availability(self),
        }


def _level(
    letter: str, title: str, group: str, paper_speedup: float
) -> LevelSpec:
    passes = LEVEL_PASSES[letter]
    return LevelSpec(
        letter=letter,
        title=title,
        group=group,
        passes=passes,
        kernel=apply_passes(BASE_SPEC, passes),
        paper_speedup=paper_speedup,
    )


class OptimizationLevel(Enum):
    """Levels A..G; values are :class:`LevelSpec` descriptions."""

    A = _level("A", "base implementation", "base", 13.0)
    B = _level("B", "memory coalescing", "general", 41.0)
    C = _level("C", "overlapped execution", "general", 57.0)
    D = _level("D", "branch reduction", "algorithm-specific", 85.0)
    E = _level("E", "predicated execution", "algorithm-specific", 86.0)
    F = _level("F", "register reduction", "algorithm-specific", 97.0)
    G = _level("G", "tiled shared memory", "shared-memory", 101.0)

    @property
    def spec(self) -> LevelSpec:
        return self.value

    @property
    def letter(self) -> str:
        return self.value.letter

    @classmethod
    def parse(cls, level: "OptimizationLevel | str") -> "OptimizationLevel":
        """Accept a member, a letter ('F') or a name ('regopt'-ish title)."""
        if isinstance(level, cls):
            return level
        key = str(level).strip().upper()
        try:
            return cls[key]
        except KeyError:
            raise ConfigError(
                f"unknown optimization level {level!r}; expected one of "
                f"{[m.name for m in cls]}"
            ) from None


#: All levels in paper order.
LEVELS = tuple(OptimizationLevel)


def level_spec_for(
    letter: str, model: "ModelFamily | str" = MOG_FAMILY
) -> LevelSpec:
    """The :class:`LevelSpec` of one paper level for a model family.

    For MoG this is the :class:`OptimizationLevel` member's spec.  For
    other families the level's cumulative pass stack is filtered to the
    passes that apply (e.g. DMSG has no sort to eliminate), the family
    base spec seeds the fold, and the result keeps the bare letter —
    ``repro levels`` distinguishes rows by the ``model`` column, not by
    mangled letters.  Paper speedups are MoG measurements, so other
    families carry ``paper_speedup=None``.
    """
    fam = resolve_model(model)
    member = OptimizationLevel.parse(letter)
    if fam is MOG_FAMILY:
        return member.spec
    base = member.spec
    passes = applicable_passes(base.passes, fam)
    return LevelSpec(
        letter=base.letter,
        title=base.title,
        group=base.group,
        passes=passes,
        kernel=apply_passes(base_spec_for(fam), passes),
        paper_speedup=None,
    )


def custom_level(
    passes,
    name: str | None = None,
    title: str | None = None,
    model: "ModelFamily | str" = MOG_FAMILY,
) -> LevelSpec:
    """Build a :class:`LevelSpec` from an arbitrary kernel-pass stack.

    ``passes`` is a sequence of pass names (or :class:`KernelPass`
    instances) applied to the family's level-A base in order.  If the
    stack is exactly one of the paper's levels (for the default MoG
    family), that level's spec is returned; otherwise a
    ``group="custom"`` spec without a paper speedup.  Pass
    prerequisites are enforced (e.g. ``register-reduction`` before
    ``predication`` raises), so ablation sweeps cannot silently build
    a kernel the passes do not describe.  A pass that does not apply
    to the family (``sort-elimination`` on DMSG) is a no-op with a
    :class:`RuntimeWarning` — here the stack is an explicit request,
    unlike the cumulative level definitions, which filter silently.
    """
    fam = resolve_model(model)
    resolved = tuple(resolve_pass(p) for p in passes)
    names = tuple(p.name for p in resolved)
    if fam is MOG_FAMILY:
        for member in OptimizationLevel:
            if member.spec.passes == names:
                return member.spec
    # Apply the *resolved instances*, not the names: a parameterised
    # pass instance (e.g. FusionPass with a stage subset) must keep its
    # configuration.
    kernel = apply_passes(base_spec_for(fam), resolved)
    default_name = "A+" + "+".join(names) if names else "A"
    if fam is not MOG_FAMILY:
        default_name = f"{fam.name}:{default_name}"
    return LevelSpec(
        letter=name or default_name,
        title=title or "custom pass stack",
        group="custom",
        passes=names,
        kernel=kernel,
        paper_speedup=None,
    )


def resolve_level_spec(
    level: "OptimizationLevel | LevelSpec | str",
    model: "ModelFamily | str | None" = None,
) -> LevelSpec:
    """Normalise any level designator to a :class:`LevelSpec`.

    Accepts an :class:`OptimizationLevel` member, a ready
    :class:`LevelSpec`, a level letter (``"F"``) or a pass expression
    ``"<base>+<pass>[+<pass>...]"`` where ``<base>`` is a level letter
    seeding the stack (empty means A): ``"A+predication"``,
    ``"B+sort-elimination"``, ``"+soa-layout"``.

    A string designator may carry a ``model:`` prefix selecting the
    background-model family (``"dmsg:F"``, ``"dmsg:A+predication"``);
    without one the family defaults to ``model`` (or MoG).  When both
    the prefix and ``model`` are given they must agree — a silent
    override would hide a config mistake.
    """
    fam = None if model is None else resolve_model(model)
    if isinstance(level, LevelSpec):
        if fam is not None and level.model is not fam:
            raise ConfigError(
                f"level spec {level.letter!r} is a {level.model.name!r} "
                f"spec but model={fam.name!r} was requested"
            )
        return level
    if isinstance(level, OptimizationLevel):
        if fam is not None and fam is not MOG_FAMILY:
            return level_spec_for(level.letter, fam)
        return level.spec
    text = str(level).strip()
    if ":" in text:
        prefix, _, text = text.partition(":")
        prefix_fam = resolve_model(prefix)
        if fam is not None and prefix_fam is not fam:
            raise ConfigError(
                f"level designator {level!r} names model family "
                f"{prefix_fam.name!r} but model={fam.name!r} was requested"
            )
        fam = prefix_fam
        text = text.strip()
    if fam is None:
        fam = MOG_FAMILY
    if "+" in text:
        base, *extra = [part.strip() for part in text.split("+")]
        base_passes = (
            level_spec_for(base, fam).passes if base else ()
        )
        name = text if fam is MOG_FAMILY else f"{fam.name}:{text}"
        return custom_level(
            base_passes + tuple(extra), name=name, model=fam
        )
    return level_spec_for(text, fam)


# ----------------------------------------------------------------------
# Backend availability
# ----------------------------------------------------------------------
def backend_availability(level) -> dict:
    """Per-backend availability of a level spec, for discovery.

    Callers (``repro levels --json``, admission checks) use this to
    learn *before the first frame* that e.g. the compiled kernels cannot
    be built, or that a spec has no CUDA rendering. Each entry is
    ``{"available": bool}`` plus a ``"reason"`` when unavailable.

    * ``cpu`` / ``sim`` — always available (every valid spec has a
      vectorized variant and a simulator kernel).
    * ``jit`` — whether the compiled per-pixel kernels can be built (a
      C compiler on ``PATH``); without one, both spellings of the cpu
      backend run the NumPy block loop.
    * ``cuda-text`` — whether :mod:`repro.cudagen` can render the spec
      (register-resident tiling is a simulator-only ablation).
    """
    from ..cpu.native import compiler_status

    spec = resolve_level_spec(level).kernel
    out = {
        "cpu": {"available": True},
        "sim": {"available": True},
    }
    compiled, reason = compiler_status()
    out["jit"] = (
        {"available": True} if compiled
        else {"available": False, "reason": reason}
    )
    if spec.tiling == "registers":
        out["cuda-text"] = {
            "available": False,
            "reason": (
                "register-resident tiling is a simulator-only ablation; "
                "no CUDA template"
            ),
        }
    elif spec.tiling != "none" and spec.model.name != "mog":
        out["cuda-text"] = {
            "available": False,
            "reason": (
                f"no tiled CUDA template for the {spec.model.name!r} "
                "family (shared-memory staging is rendered for MoG only)"
            ),
        }
    else:
        out["cuda-text"] = {"available": True}
    return out


# ----------------------------------------------------------------------
# Paper tables (derived from pass metadata)
# ----------------------------------------------------------------------
def _table_rows(
    cols: list[OptimizationLevel],
    pass_names: tuple[str, ...],
    include_base: bool,
) -> list[tuple[str, list[str]]]:
    features = [("Base Implementation", "base")] if include_base else []
    features += [
        (PASS_REGISTRY[name].table, PASS_REGISTRY[name].enables)
        for name in pass_names
    ]
    return [
        (title, ["x" if key in lv.spec.enables else "" for lv in cols])
        for title, key in features
    ]


def table_ii_rows() -> list[tuple[str, list[str]]]:
    """The paper's Table II: general optimization levels."""
    return _table_rows(
        [OptimizationLevel.A, OptimizationLevel.B, OptimizationLevel.C],
        ("soa-layout", "overlap"),
        include_base=True,
    )


def table_iii_rows() -> list[tuple[str, list[str]]]:
    """The paper's Table III: algorithm-specific optimization levels."""
    return _table_rows(
        [OptimizationLevel.D, OptimizationLevel.E, OptimizationLevel.F],
        ("sort-elimination", "predication", "register-reduction"),
        include_base=False,
    )
