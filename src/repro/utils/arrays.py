"""Array validation helpers used at public API boundaries."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, VideoError


def as_gray_frame(frame: np.ndarray) -> np.ndarray:
    """Validate and normalise a single grayscale frame.

    Accepts a 2-D ``uint8`` array, or a 2-D float array with values in
    [0, 255] (converted to ``uint8`` by rounding). Anything else raises
    :class:`~repro.errors.VideoError`.
    """
    arr = np.asarray(frame)
    if arr.ndim != 2:
        raise VideoError(f"expected a 2-D grayscale frame, got shape {arr.shape}")
    if arr.size == 0:
        raise VideoError("frame is empty")
    if arr.dtype == np.uint8:
        return arr
    if np.issubdtype(arr.dtype, np.floating):
        # NaN compares false against any bound, so the range check alone
        # would let a NaN frame through and the uint8 cast would turn it
        # into silent garbage pixels.
        if not np.isfinite(arr).all():
            raise VideoError("float frame contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 255.0:
            raise VideoError(
                "float frame values must lie in [0, 255], got "
                f"[{arr.min()}, {arr.max()}]"
            )
        return np.rint(arr).astype(np.uint8)
    if np.issubdtype(arr.dtype, np.integer):
        if arr.min() < 0 or arr.max() > 255:
            raise VideoError("integer frame values must lie in [0, 255]")
        return arr.astype(np.uint8)
    raise VideoError(f"unsupported frame dtype: {arr.dtype}")


def check_model_frame(
    frame: np.ndarray,
    shape: tuple[int, int],
    dtype: np.dtype,
    *,
    cast_integers: bool = True,
) -> np.ndarray:
    """Validate one frame for a background model and flatten it.

    Accepted dtypes: any unsigned/signed integer or float kind
    (``u``/``i``/``f``); typical sources produce ``uint8``. Float frames
    are cast to the run ``dtype`` and the finiteness check runs *after*
    the cast, so a finite ``float64`` value that overflows to ``inf`` in
    a ``float32`` run is rejected too — non-finite values written into
    the model state would persist for the pixel's lifetime. Integer
    frames are cast as well unless ``cast_integers`` is false: the CPU
    engine casts them block by block, which gives the same values
    without a full-frame copy. A float frame already in the run dtype
    comes back as a view of the caller's frame, so models only read
    the result.
    """
    frame = np.asarray(frame)
    if frame.shape != shape:
        raise ConfigError(f"frame shape {frame.shape} != configured {shape}")
    if frame.dtype.kind not in "uif":
        raise ConfigError(
            f"frame dtype must be integer or float, got {frame.dtype}"
        )
    flat = frame.reshape(-1)
    if frame.dtype.kind == "f":
        flat = flat.astype(dtype, copy=False)
        if not np.isfinite(flat).all():
            raise ConfigError(
                f"frame contains non-finite values after cast to {dtype} "
                f"(NaN/inf would poison the model state)"
            )
    elif cast_integers:
        flat = flat.astype(dtype)
    return flat


def check_same_shape(a: np.ndarray, b: np.ndarray, what: str = "arrays") -> None:
    """Raise :class:`VideoError` unless ``a`` and ``b`` have equal shape."""
    if a.shape != b.shape:
        raise VideoError(f"{what} must have equal shapes: {a.shape} vs {b.shape}")


def to_uint8(mask: np.ndarray) -> np.ndarray:
    """Convert a boolean/0-1 mask to a 0/255 ``uint8`` image."""
    return (np.asarray(mask) != 0).astype(np.uint8) * np.uint8(255)
