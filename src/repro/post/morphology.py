"""Morphological cleanup of raw MoG foreground masks.

Raw per-pixel background subtraction is noisy: isolated salt pixels
from the sensor-noise tail, and pinholes inside objects whose interior
happens to match a background component. The classical remedy, applied
by every deployment the paper's introduction lists, is a morphological
open (remove speckles) followed by a close (fill holes) and a minimum
blob size.

The disk morphology is computed by exact row decomposition. Row ``dy``
of the radius-``r`` disk is the horizontal run ``|dx| <= isqrt(r² −
dy²)``, so a dilation is the OR, and an erosion the AND, of horizontal
runs shifted vertically by ``±dy``. Each run width is built once per
call from shifted in-place logical ops on C-ordered bool arrays. The
erosion treats pixels outside the frame as background, so every pixel
whose disk reaches past an edge is cleared (closing is not extensive
at the border). Only connected-component labelling stays on
:func:`scipy.ndimage.label`; the per-component statistics come from
the sparse list of foreground pixels. The results are bit-identical
to the :mod:`scipy.ndimage` compositions (``binary_opening``,
``binary_closing``, ``find_objects``, ``center_of_mass``), which the
tests use as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import ConfigError


def _as_bool(mask) -> np.ndarray:
    """``mask != 0`` as a C-ordered 2-D bool array (bool C-ordered
    input is returned as is, so callers must not write to the result)."""
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        mask = mask != 0
    if mask.ndim != 2:
        raise ConfigError(f"expected a 2-D mask, got shape {mask.shape}")
    return np.ascontiguousarray(mask)


def _disk_rows(src: np.ndarray, radius: int, op) -> np.ndarray:
    """``op``-reduce ``src`` over the radius-``radius`` disk, pixels
    outside the frame not contributing: a fresh array."""
    widths = [math.isqrt(radius * radius - dy * dy)
              for dy in range(radius + 1)]
    run, k = src, 0
    acc = np.empty(src.shape, dtype=np.bool_)
    # Widths grow as |dy| shrinks, so one run is widened in place from
    # the disk's top/bottom row inwards.
    for dy in range(radius, -1, -1):
        while k < widths[dy]:
            k += 1
            if run is src:
                run = src.copy()
            op(run[:, k:], src[:, :-k], out=run[:, k:])
            op(run[:, :-k], src[:, k:], out=run[:, :-k])
        if dy == 0:
            op(acc, run, out=acc)
            break
        if dy == radius:
            acc[:dy] = False
            acc[dy:] = run[:-dy]
        else:
            op(acc[dy:], run[:-dy], out=acc[dy:])
        op(acc[:-dy], run[dy:], out=acc[:-dy])
    return acc


def _dilate(src: np.ndarray, radius: int) -> np.ndarray:
    return _disk_rows(src, radius, np.logical_or)


def _erode(src: np.ndarray, radius: int) -> np.ndarray:
    out = _disk_rows(src, radius, np.logical_and)
    # Outside the frame is background: clear every pixel whose disk
    # reaches past an edge (the AND above skipped those taps).
    out[:radius] = False
    out[-radius:] = False
    out[:, :radius] = False
    out[:, -radius:] = False
    return out


def clean_mask(
    mask: np.ndarray,
    open_radius: int = 1,
    close_radius: int = 2,
    min_area: int = 0,
) -> np.ndarray:
    """Clean a boolean foreground mask.

    Parameters
    ----------
    open_radius:
        Radius of the opening element (removes blobs thinner than
        roughly ``2*open_radius``); 0 skips the opening.
    close_radius:
        Radius of the closing element (fills holes/gaps narrower than
        roughly ``2*close_radius``); 0 skips the closing.
    min_area:
        Connected components smaller than this many pixels are dropped.

    Returns a new boolean mask; the input is untouched.
    """
    mask = _as_bool(mask)
    if min_area < 0:
        raise ConfigError(f"min_area must be non-negative, got {min_area}")
    out = mask
    if open_radius > 0:
        out = _dilate(_erode(out, open_radius), open_radius)
    if close_radius > 0:
        out = _erode(_dilate(out, close_radius), close_radius)
    if out is mask:
        out = mask.copy()
    if min_area > 0:
        labels, count = ndimage.label(out)
        if count:
            flat = np.flatnonzero(out)
            lab = labels.reshape(-1)[flat]
            small = np.bincount(lab) < min_area
            small[0] = False  # background label
            if small.any():
                out.reshape(-1)[flat[small[lab]]] = False
    return out


@dataclass(frozen=True)
class Component:
    """One connected foreground blob."""

    label: int
    area: int
    bbox: tuple[int, int, int, int]  # (top, left, bottom, right) exclusive
    centroid: tuple[float, float]


def connected_components(mask: np.ndarray) -> list[Component]:
    """Connected components of a mask, largest first — the hand-off
    point to tracking/detection stages downstream of background
    subtraction."""
    mask = _as_bool(mask)
    labels, count = ndimage.label(mask)
    out: list[Component] = []
    if count == 0:
        return out
    # Group the foreground pixels by label; the stable sort keeps each
    # group in raster order, so its first and last pixels hold the
    # top and bottom rows. Integer row/column sums are exact in
    # float64, so the centroids equal ndimage.center_of_mass.
    flat = np.flatnonzero(mask)
    lab = labels.reshape(-1)[flat]
    rows, cols = np.divmod(flat[np.argsort(lab, kind="stable")],
                           mask.shape[1])
    areas = np.bincount(lab)[1:]
    starts = np.zeros(count, dtype=np.intp)
    np.cumsum(areas[:-1], out=starts[1:])
    blobs = zip(
        areas.tolist(),
        rows[starts].tolist(),
        np.minimum.reduceat(cols, starts).tolist(),
        (rows[starts + areas - 1] + 1).tolist(),
        (np.maximum.reduceat(cols, starts) + 1).tolist(),
        (np.add.reduceat(rows, starts) / areas).tolist(),
        (np.add.reduceat(cols, starts) / areas).tolist(),
    )
    for i, (area, top, left, bottom, right, r, c) in enumerate(blobs, 1):
        out.append(
            Component(
                label=i,
                area=area,
                bbox=(top, left, bottom, right),
                centroid=(r, c),
            )
        )
    out.sort(key=lambda c: c.area, reverse=True)
    return out


class MaskCleaner:
    """Configured cleanup pipeline for mask sequences."""

    def __init__(
        self, open_radius: int = 1, close_radius: int = 2, min_area: int = 0
    ) -> None:
        if open_radius < 0 or close_radius < 0:
            raise ConfigError("radii must be non-negative")
        if min_area < 0:
            raise ConfigError("min_area must be non-negative")
        self.open_radius = open_radius
        self.close_radius = close_radius
        self.min_area = min_area

    def __call__(self, mask: np.ndarray) -> np.ndarray:
        return clean_mask(
            mask, self.open_radius, self.close_radius, self.min_area
        )

    def apply_sequence(self, masks) -> np.ndarray:
        cleaned = [self(m) for m in masks]
        if not cleaned:
            raise ConfigError("empty mask sequence")
        return np.stack(cleaned)
