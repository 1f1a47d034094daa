"""Compiled per-pixel kernels for the cpu backend.

The engines in :mod:`repro.cpu.engine` run each frame as one C loop
over all pixels. The C is not written by hand: it is rendered from the
same :mod:`repro.cudagen` fragments as the CUDA sources, with a host
``for (pix …)`` loop in place of the thread index, so the CUDA text is
executed — and checked bit for bit against the NumPy engines — on a
machine without a GPU.

* MoG runs the level-D body at every engine level D–G: the branchy
  update, the virtual component with its diff reset, and the flat scan
  over the stored diffs. Those levels' oracle variants produce
  identical state (:data:`~repro.cpu.engine.ENGINE_VARIANTS`), so one
  body serves all four.
* DMSG runs the branchy update and the swap-and-store body at every
  level.

One translation unit covers one ``(family, K, dtype)``. It exports one
entry point for ``uint8`` frames and one for run-dtype frames; any
other frame dtype is cast with NumPy first.

Exactness: the build uses ``-O3 -ffp-contract=off -std=c99`` and no
``-ffast-math`` or ``-march=native``; the constants arrive as an array
pre-cast to the run dtype, never as decimal literals; ``min``/``max``
propagate NaN like ``np.minimum``/``np.maximum``; and the virtual
component's first-minimum compare follows ``np.argmin``
(:data:`~repro.cudagen.generator.ARGMIN_LT`).

Each unit is compiled once per fingerprint with ``cc`` from ``PATH``
into a private per-user cache (:func:`jit_cache_dir`). Without a
compiler, or when the build fails, :func:`load_kernel` warns once and
returns ``None``, and the engine runs its NumPy block loop instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from ..config import DMSG_AGE_CAP, MoGParams
from ..cudagen.generator import (
    ARGMIN_LT,
    _dmsg_swap_and_store,
    _dmsg_update_branchy,
    _flat_scan,
    _update_branchy,
    _virtual_component,
)
from ..errors import ConfigError

__all__ = [
    "CFLAGS",
    "NativeKernel",
    "compiler_status",
    "constants",
    "jit_cache_dir",
    "kernel_fingerprint",
    "load_kernel",
    "render_source",
]

#: Environment override for the compiled-kernel cache directory.
JIT_CACHE_DIR_ENV = "REPRO_JIT_CACHE_DIR"

#: Compiler flags. No ``-ffast-math`` and no ``-march=native``: both
#: change results. FMA contraction is off so every ``a * b + c`` rounds
#: twice, as NumPy's separate ufunc passes do. ``-fno-math-errno`` only
#: drops ``sqrt``'s ``errno`` write, which lets it inline.
CFLAGS = (
    "-O3", "-ffp-contract=off", "-fno-math-errno", "-std=c99",
    "-fPIC", "-shared",
)

#: The kernel constants, in the order of the array :func:`constants`
#: builds; the rendered C reads them as ``cst[i]``.
CONSTANTS = (
    "ALPHA", "ONE_MINUS_ALPHA", "GAMMA1", "GAMMA2", "INITIAL_WEIGHT",
    "INITIAL_SD", "SD_FLOOR", "DMSG_AGE_CAP",
)

_SCALAR_T = {np.dtype(np.float32): "float", np.dtype(np.float64): "double"}

_BODIES = {
    "mog": lambda m: (
        "    int match = 0;\n"
        "    scalar_t diff[NUM_GAUSSIANS];\n"
        "    for (int k = 0; k < NUM_GAUSSIANS; ++k) {\n"
        + _update_branchy(m)
        + "    }\n"
        + _virtual_component(m, set_diff=True)
        + _flat_scan(m, stored_diff=True)
    ),
    "dmsg": lambda m: _dmsg_update_branchy(m) + _dmsg_swap_and_store(m),
}


def constants(params: MoGParams, dtype: np.dtype) -> np.ndarray:
    """The :data:`CONSTANTS` as a run-dtype array: each one rounded to
    the run dtype once, the way the NumPy engines see it."""
    dt = np.dtype(dtype).type
    alpha = dt(1.0 - params.learning_rate)
    return np.array(
        [
            alpha, dt(1.0) - alpha, params.match_threshold,
            params.background_weight, params.initial_weight,
            params.initial_sd, params.sd_floor, DMSG_AGE_CAP,
        ],
        dtype=dtype,
    )


def render_source(family: str, k: int, dtype) -> str:
    """C source of one translation unit ``(family, K, dtype)``."""
    dtype = np.dtype(dtype)
    if family not in _BODIES:
        raise ConfigError(
            f"no compiled kernel for model family {family!r}; "
            f"expected one of {tuple(_BODIES)}"
        )
    if dtype not in _SCALAR_T:
        raise ConfigError(f"no compiled kernel for dtype {dtype}")
    if not 1 <= k <= 8:
        raise ConfigError(f"component count must be in [1, 8], got {k}")
    defines = "".join(
        f"#define {name} cst[{i}]\n" for i, name in enumerate(CONSTANTS)
    )
    body = _BODIES[family]("HOST_IDX")
    entries = "".join(
        f"""
void repro_update_{suffix}(const {frame_t} *frame, scalar_t *w,
                           scalar_t *m, scalar_t *sd, unsigned char *fg,
                           long n, const scalar_t *cst)
{{
    scalar_t *const g[3] = {{w, m, sd}};
    for (long pix = 0; pix < n; ++pix)
        fg[pix] = update_pixel((scalar_t)frame[pix], g, n, pix, cst);
}}
"""
        for suffix, frame_t in (("u8", "unsigned char"), ("run", "scalar_t"))
    )
    return f"""\
// {family} kernel, K={k}, {_SCALAR_T[dtype]}: rendered by repro.cpu.native
// from the repro.cudagen fragments; do not edit.
#include <tgmath.h>

typedef {_SCALAR_T[dtype]} scalar_t;

#define NUM_GAUSSIANS {k}
{defines}#define P_W 0
#define P_M 1
#define P_SD 2
// The fragments index g[MACRO(k, p, pix)]; here g holds the three
// (K, n) state planes, so this expands to g[p][k * n + pix].
#define HOST_IDX(k, p, pix) p][(k) * n + (pix)
{ARGMIN_LT}
// np.minimum / np.maximum: a NaN in either operand propagates.
static inline scalar_t min(scalar_t a, scalar_t b)
{{
    return (a <= b || a != a) ? a : b;
}}

static inline scalar_t max(scalar_t a, scalar_t b)
{{
    return (a >= b || a != a) ? a : b;
}}

static inline unsigned char update_pixel(const scalar_t x,
                                         scalar_t *const g[3],
                                         const long n, const long pix,
                                         const scalar_t *const cst)
{{
{body}\
    return fg != 0;
}}
{entries}"""


def kernel_fingerprint(
    family: str, k: int, dtype, source: str, compiler: str
) -> str:
    """Content hash of everything a compiled unit depends on."""
    payload = "|".join(
        ("v1", family, str(k), np.dtype(dtype).name, source,
         " ".join(CFLAGS), compiler)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def jit_cache_dir() -> Path:
    """Directory holding compiled kernels: ``REPRO_JIT_CACHE_DIR``, or
    a per-user directory under the system temp dir. Created with mode
    ``0o700``; :func:`load_kernel` loads nothing from a directory
    another user owns or can write to."""
    override = os.environ.get(JIT_CACHE_DIR_ENV)
    if override:
        path = Path(override).expanduser()
    else:
        path = Path(tempfile.gettempdir()) / f"repro-jit-{os.getuid()}"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    return path


def compiler_status() -> tuple[bool, str | None]:
    """``(True, None)`` when ``cc`` is on ``PATH``, else ``(False,
    reason)``."""
    if shutil.which("cc") is None:
        return False, "no C compiler 'cc' on PATH"
    return True, None


class NativeKernel:
    """One loaded translation unit for ``(family, K, dtype)``."""

    def __init__(self, lib: ctypes.CDLL, k: int, dtype: np.dtype) -> None:
        # CDLL, not PyDLL: calls release the GIL.
        self._lib = lib
        self.k = k
        self.dtype = dtype
        self._u8 = lib.repro_update_u8
        self._run = lib.repro_update_run
        for fn in (self._u8, self._run):
            fn.argtypes = [ctypes.c_void_p] * 5 + [
                ctypes.c_long, ctypes.c_void_p,
            ]
            fn.restype = None

    def __call__(self, x: np.ndarray, state, fg: np.ndarray,
                 consts: np.ndarray) -> None:
        """Update ``state`` in place with the flat frame ``x`` and
        write the foreground flags into the flat bool array ``fg``."""
        n = fg.size
        if x.dtype == np.uint8:
            fn = self._u8
        else:
            fn = self._run
            x = x.astype(self.dtype, copy=False)
        x = np.ascontiguousarray(x)
        if x.shape != (n,) or not fg.flags.c_contiguous:
            raise ConfigError("frame and mask must be flat and contiguous")
        if consts.dtype != self.dtype or consts.size != len(CONSTANTS):
            raise ConfigError("kernel constants have the wrong layout")
        w, m, sd = (self._plane(state, name, n) for name in ("w", "m", "sd"))
        fn(x.ctypes.data, w.ctypes.data, m.ctypes.data, sd.ctypes.data,
           fg.ctypes.data, n, consts.ctypes.data)

    def _plane(self, state, name: str, n: int) -> np.ndarray:
        """A state plane the C loop may write through: the run dtype,
        ``(K, n)``, C-contiguous and writeable. Integrity repair and
        restore rebind the planes, so a plane that is not is copied
        and rebound on the state."""
        a = getattr(state, name)
        if a.shape != (self.k, n):
            raise ConfigError(
                f"state plane {name} has shape {a.shape}, the kernel "
                f"needs {(self.k, n)}"
            )
        if not (a.dtype == self.dtype and a.flags.c_contiguous
                and a.flags.writeable):
            a = np.array(a, dtype=self.dtype, order="C")
            setattr(state, name, a)
        return a


class _BuildError(Exception):
    """Why a kernel could not be compiled or loaded."""


_lock = threading.Lock()
_loaded: dict[tuple, NativeKernel | None] = {}
_versions: dict[str, str] = {}


def load_kernel(
    family: str, k: int, dtype
) -> tuple[NativeKernel | None, float]:
    """The compiled kernel for ``(family, K, dtype)`` and the seconds
    spent compiling it (0 when it came from the cache).

    Returns ``(None, 0.0)`` with one ``RuntimeWarning`` when no
    compiler is on ``PATH`` or the build fails; the caller then runs
    its NumPy block loop. Results are memoised per process, keyed also
    on the compiler and the cache directory.
    """
    dtype = np.dtype(dtype)
    cc = shutil.which("cc")
    key = (family, k, dtype.str, cc, os.environ.get(JIT_CACHE_DIR_ENV))
    with _lock:
        if key in _loaded:
            return _loaded[key], 0.0
        source = render_source(family, k, dtype)
        start = time.perf_counter()
        try:
            kernel, compiled = _build(family, k, dtype, source, cc)
        except _BuildError as exc:
            warnings.warn(
                f"compiled {family} kernel unavailable ({exc}); running "
                "the NumPy block loop (identical masks, lower throughput)",
                RuntimeWarning,
                stacklevel=3,
            )
            kernel, compiled = None, False
        _loaded[key] = kernel
    return kernel, (time.perf_counter() - start) if compiled else 0.0


def _build(family, k, dtype, source, cc) -> tuple[NativeKernel, bool]:
    if cc is None:
        raise _BuildError(compiler_status()[1])
    name = "{}{}_{}_{}.so".format(
        family, k, dtype.name,
        kernel_fingerprint(family, k, dtype, source, _compiler_version(cc)),
    )
    try:
        cache = jit_cache_dir()
    except OSError:
        cache = None
    if cache is None or not _private(cache):
        # Never load from a directory someone else controls: build into
        # a fresh private directory, load, and let it go (the mapping
        # outlives the file).
        with tempfile.TemporaryDirectory() as tmp:
            return _open(_compile(cc, source, Path(tmp), name), k, dtype), True
    path = cache / name
    if _private(path):
        try:
            return _open(path, k, dtype), False
        except _BuildError:
            pass  # truncated or stale: rebuild over it
    return _open(_compile(cc, source, cache, name), k, dtype), True


def _private(path: Path) -> bool:
    """Owned by this user and writable by no one else."""
    try:
        st = path.stat()
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & (
        stat.S_IWGRP | stat.S_IWOTH
    )


def _compiler_version(cc: str) -> str:
    if cc not in _versions:
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True,
                timeout=60, check=True,
            ).stdout
        except (OSError, subprocess.SubprocessError) as exc:
            raise _BuildError(f"{cc} --version failed: {exc}") from exc
        _versions[cc] = out.strip().splitlines()[0] if out.strip() else cc
    return _versions[cc]


def _compile(cc: str, source: str, directory: Path, name: str) -> Path:
    """Compile to a temporary name in ``directory`` and publish it as
    ``name`` with one atomic ``os.replace``, so a concurrent loader
    sees either no file or a complete one."""
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [cc, *CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                input=source, capture_output=True, text=True, timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _BuildError(f"{cc} failed: {exc}") from exc
        if proc.returncode != 0:
            raise _BuildError(
                f"{cc} exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        os.chmod(tmp, 0o700)
        path = directory / name
        os.replace(tmp, path)
        return path
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path, k: int, dtype: np.dtype) -> NativeKernel:
    try:
        return NativeKernel(ctypes.CDLL(str(path)), k, dtype)
    except (OSError, AttributeError) as exc:
        raise _BuildError(f"cannot load {path.name}: {exc}") from exc
