"""Morphological cleanup of raw MoG foreground masks.

Raw per-pixel background subtraction is noisy: isolated salt pixels
from the sensor-noise tail, and pinholes inside objects whose interior
happens to match a background component. The classical remedy, applied
by every deployment the paper's introduction lists, is a morphological
open (remove speckles) followed by a close (fill holes) and a minimum
blob size. This module packages that on :mod:`scipy.ndimage`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import ConfigError


def _disk(radius: int) -> np.ndarray:
    """A disk-shaped structuring element."""
    if radius <= 0:
        raise ConfigError(f"structuring radius must be positive, got {radius}")
    d = 2 * radius + 1
    yy, xx = np.mgrid[0:d, 0:d]
    return (yy - radius) ** 2 + (xx - radius) ** 2 <= radius**2


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
    mask = np.asarray(mask) != 0
    if mask.ndim != 2:
        raise ConfigError(f"expected a 2-D mask, got shape {mask.shape}")
    if min_area < 0:
        raise ConfigError(f"min_area must be non-negative, got {min_area}")
    out = mask
    if open_radius > 0:
        out = ndimage.binary_opening(out, structure=_disk(open_radius))
    if close_radius > 0:
        out = ndimage.binary_closing(out, structure=_disk(close_radius))
    if min_area > 0:
        labels, count = ndimage.label(out)
        if count:
            areas = np.bincount(labels.reshape(-1))
            keep = areas >= min_area
            keep[0] = False  # background label
            out = keep[labels]
    return out.astype(bool)


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
    mask = np.asarray(mask) != 0
    if mask.ndim != 2:
        raise ConfigError(f"expected a 2-D mask, got shape {mask.shape}")
    labels, count = ndimage.label(mask)
    out: list[Component] = []
    if count == 0:
        return out
    # Centroids from integer row/column sums over the foreground
    # pixels: the sums are exact in float64, so they equal
    # ndimage.center_of_mass without its full-frame passes.
    flat = np.flatnonzero(labels)
    lab = labels.reshape(-1)[flat]
    rows, cols = np.divmod(flat, mask.shape[1])
    areas = np.bincount(lab, minlength=count + 1)[1:]
    cy = np.bincount(lab, weights=rows, minlength=count + 1)[1:] / areas
    cx = np.bincount(lab, weights=cols, minlength=count + 1)[1:] / areas
    blobs = zip(ndimage.find_objects(labels), areas.tolist(),
                cy.tolist(), cx.tolist())
    for i, (sl, area, r, c) in enumerate(blobs, start=1):
        out.append(
            Component(
                label=i,
                area=area,
                bbox=(sl[0].start, sl[1].start, sl[0].stop, sl[1].stop),
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
