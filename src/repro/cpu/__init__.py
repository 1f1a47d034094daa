"""CPU execution: the in-place engines the cpu backend runs, plus the
paper's CPU baselines (analytic timing model + real timed execution)."""

from .engine import DmsgEngine, MoGEngine
from .model import CpuMode, CpuTimeModel, PAPER_BASELINES
from .runner import TimedCpuRun, run_cpu_reference

__all__ = [
    "DmsgEngine",
    "MoGEngine",
    "CpuMode",
    "CpuTimeModel",
    "PAPER_BASELINES",
    "TimedCpuRun",
    "run_cpu_reference",
]
