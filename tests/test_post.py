"""Morphological mask cleanup and component extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from repro.errors import ConfigError
from repro.post import MaskCleaner, clean_mask, connected_components


def scipy_disk(radius):
    d = 2 * radius + 1
    yy, xx = np.mgrid[0:d, 0:d]
    return (yy - radius) ** 2 + (xx - radius) ** 2 <= radius**2


def scipy_clean(mask, open_radius, close_radius, min_area):
    """The scipy.ndimage composition clean_mask must equal bit for bit."""
    out = np.asarray(mask) != 0
    if open_radius:
        out = ndimage.binary_opening(out, structure=scipy_disk(open_radius))
    if close_radius:
        out = ndimage.binary_closing(out, structure=scipy_disk(close_radius))
    if min_area:
        labels, count = ndimage.label(out)
        if count:
            keep = np.bincount(labels.reshape(-1)) >= min_area
            keep[0] = False
            out = keep[labels]
    return out


def scipy_components(mask):
    """(label, area, bbox, centroid) per component, largest first."""
    mask = np.asarray(mask) != 0
    labels, count = ndimage.label(mask)
    index = np.arange(1, count + 1)
    areas = ndimage.sum_labels(mask, labels, index)
    centroids = ndimage.center_of_mass(mask, labels, index)
    comps = [
        (i, int(areas[i - 1]),
         (sl[0].start, sl[1].start, sl[0].stop, sl[1].stop),
         tuple(float(v) for v in centroids[i - 1]))
        for i, sl in enumerate(ndimage.find_objects(labels), start=1)
    ]
    comps.sort(key=lambda c: c[1], reverse=True)
    return comps


def as_tuples(comps):
    return [(c.label, c.area, c.bbox, c.centroid) for c in comps]


def assert_matches_scipy(mask, open_radius, close_radius, min_area):
    out = clean_mask(mask, open_radius, close_radius, min_area)
    want = scipy_clean(mask, open_radius, close_radius, min_area)
    assert out.dtype == np.bool_ and out.shape == want.shape
    assert np.array_equal(out, want)


def edge_masks():
    """Blobs touching each edge and each corner, plus full frames."""
    out = []
    for h, w in ((9, 9), (12, 17)):
        for top in (0, h // 2 - 2, h - 5):
            for left in (0, w // 2 - 2, w - 5):
                m = np.zeros((h, w), dtype=bool)
                m[top:top + 5, left:left + 5] = True
                m[h // 2, w // 2] = False  # an interior or rim pinhole
                out.append(m)
        out.append(np.ones((h, w), dtype=bool))
    return out


def blob_mask(h=24, w=24):
    mask = np.zeros((h, w), dtype=bool)
    mask[6:14, 6:14] = True
    return mask


class TestCleanMask:
    def test_removes_salt_noise(self):
        mask = blob_mask()
        mask[20, 20] = True  # isolated pixel
        out = clean_mask(mask, open_radius=1, close_radius=0)
        assert not out[20, 20]
        assert out[8:12, 8:12].all()  # blob interior survives

    def test_fills_pinholes(self):
        mask = blob_mask()
        mask[9, 9] = False
        out = clean_mask(mask, open_radius=0, close_radius=2)
        assert out[9, 9]

    def test_min_area_filter(self):
        mask = blob_mask()
        mask[20:22, 20:22] = True  # 4-pixel blob
        out = clean_mask(mask, open_radius=0, close_radius=0, min_area=10)
        assert not out[20:22, 20:22].any()
        assert out[8, 8]

    def test_empty_mask_stays_empty(self):
        out = clean_mask(np.zeros((16, 16), dtype=bool))
        assert not out.any()

    def test_input_untouched(self):
        mask = blob_mask()
        mask[20, 20] = True
        snapshot = mask.copy()
        clean_mask(mask)
        assert np.array_equal(mask, snapshot)

    def test_accepts_uint8(self):
        mask = blob_mask().astype(np.uint8) * 255
        out = clean_mask(mask, open_radius=1, close_radius=0)
        assert out.dtype == np.bool_
        assert out.any()

    def test_validation(self):
        with pytest.raises(ConfigError):
            clean_mask(np.zeros((2, 2, 2), dtype=bool))
        with pytest.raises(ConfigError):
            clean_mask(blob_mask(), min_area=-1)

    @given(arrays(np.bool_, (16, 16)))
    @settings(max_examples=40, deadline=None)
    def test_opening_only_removes(self, mask):
        out = clean_mask(mask, open_radius=1, close_radius=0)
        assert not (out & ~mask).any()  # opening is anti-extensive

    @given(arrays(np.bool_, (16, 16)))
    @settings(max_examples=40, deadline=None)
    def test_min_area_monotone(self, mask):
        small = clean_mask(mask, 0, 0, min_area=2)
        large = clean_mask(mask, 0, 0, min_area=6)
        assert not (large & ~small).any()


mask_shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))
radii = st.integers(0, 3)


class TestScipyOracle:
    """clean_mask and connected_components are bit-identical to the
    scipy.ndimage compositions they replace."""

    @given(
        st.data(), mask_shapes, st.floats(0.0, 1.0), radii, radii,
        st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_clean_mask_random(self, data, shape, density, r_open,
                               r_close, min_area):
        seed = data.draw(st.integers(0, 2**32 - 1))
        mask = np.random.default_rng(seed).random(shape) < density
        assert_matches_scipy(mask, r_open, r_close, min_area)

    @pytest.mark.parametrize("r_open, r_close", [(1, 0), (0, 1), (2, 0),
                                                 (0, 2), (3, 0), (0, 3),
                                                 (1, 2)])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (2, 30),
                                       (30, 2), (7, 7)])
    @pytest.mark.parametrize("density", [0.3, 0.7, 1.0])
    def test_thin_frames(self, shape, r_open, r_close, density):
        mask = np.random.default_rng(sum(shape)).random(shape) < density
        for min_area in (0, 3):
            assert_matches_scipy(mask, r_open, r_close, min_area)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_full_frame_border_rings_clear(self, radius):
        """Outside the frame is background. Closing an all-True frame
        clears the ring where the disk reaches past an edge; opening
        grows back from the eroded interior but not into the corners."""
        mask = np.ones((11, 13), dtype=bool)
        ring = np.ones_like(mask)
        ring[radius:-radius, radius:-radius] = False
        closed = clean_mask(mask, 0, radius)
        assert not closed[ring].any()
        assert closed[~ring].all()
        opened = clean_mask(mask, radius, 0)
        assert not opened[[0, 0, -1, -1], [0, -1, 0, -1]].any()
        assert opened[~ring].all()
        for r_open, r_close in ((radius, 0), (0, radius), (radius, radius)):
            assert_matches_scipy(mask, r_open, r_close, 0)

    @pytest.mark.parametrize("index", range(20))
    def test_edge_and_corner_blobs(self, index):
        mask = edge_masks()[index]
        for r_open in range(3):
            for r_close in range(4):
                assert_matches_scipy(mask, r_open, r_close, 6)
        assert as_tuples(connected_components(mask)) == scipy_components(mask)

    def test_uint8_input(self):
        rng = np.random.default_rng(3)
        mask = (rng.random((30, 40)) < 0.4).astype(np.uint8) * 255
        for r_open, r_close in ((1, 2), (0, 2), (2, 0)):
            assert_matches_scipy(mask, r_open, r_close, 4)
        assert as_tuples(connected_components(mask)) == scipy_components(mask)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "transposed"])
    def test_non_contiguous_input(self, layout):
        base = np.random.default_rng(4).random((40, 50)) < 0.45
        mask = {
            "fortran": np.asfortranarray(base),
            "strided": base[::2, 1::3],
            "transposed": base.T,
        }[layout]
        assert not mask.flags.c_contiguous
        for r_open, r_close in ((1, 2), (0, 2), (0, 0)):
            assert_matches_scipy(mask, r_open, r_close, 5)
        assert as_tuples(connected_components(mask)) == scipy_components(mask)

    @pytest.mark.parametrize("args", [(0, 0, 0), (0, 0, 4), (1, 0, 0),
                                      (0, 2, 4), (1, 2, 4)])
    def test_input_neither_modified_nor_aliased(self, args):
        mask = np.random.default_rng(5).random((24, 24)) < 0.5
        snapshot = mask.copy()
        out = clean_mask(mask, *args)
        assert np.array_equal(mask, snapshot)
        assert not np.shares_memory(out, mask)
        out[...] = ~out
        assert np.array_equal(mask, snapshot)

    @given(st.data(), mask_shapes, st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_components_random(self, data, shape, density):
        seed = data.draw(st.integers(0, 2**32 - 1))
        mask = np.random.default_rng(seed).random(shape) < density
        assert as_tuples(connected_components(mask)) == scipy_components(mask)

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_components_many_equal_labels(self, density):
        """Thousands of foreground pixels over many labels: grouping
        must keep raster order within a label (a stable sort)."""
        mask = np.random.default_rng(6).random((64, 97)) < density
        assert as_tuples(connected_components(mask)) == scipy_components(mask)


class TestConnectedComponents:
    def test_finds_blobs_largest_first(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[1:3, 1:3] = True          # area 4
        mask[10:16, 10:16] = True      # area 36
        comps = connected_components(mask)
        assert [c.area for c in comps] == [36, 4]
        assert comps[0].bbox == (10, 10, 16, 16)
        assert comps[0].centroid == (12.5, 12.5)

    def test_empty(self):
        assert connected_components(np.zeros((8, 8), dtype=bool)) == []

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 37), (41, 1), (64, 97)])
    def test_centroids_match_center_of_mass(self, shape, density):
        """Bit-identical to ndimage.center_of_mass: many blobs, blobs
        on every edge, single-row/column frames, empty and full masks."""
        rng = np.random.default_rng(int(density * 100) + shape[1])
        mask = rng.random(shape) < density
        mask[0, ::3] |= density > 0    # blobs touching the top edge
        mask[:, -1] |= density > 0.5   # one blob along the right edge
        labels, count = ndimage.label(mask)
        comps = connected_components(mask)
        assert len(comps) == count
        if count:
            want = ndimage.center_of_mass(mask, labels, range(1, count + 1))
            for c in comps:
                com = want[c.label - 1]
                assert c.centroid == (float(com[0]), float(com[1]))
                assert c.area == int((labels == c.label).sum())

    def test_validation(self):
        with pytest.raises(ConfigError):
            connected_components(np.zeros(8, dtype=bool))


class TestMaskCleaner:
    def test_callable_and_sequence(self):
        cleaner = MaskCleaner(open_radius=1, close_radius=1, min_area=4)
        masks = [blob_mask(), blob_mask()]
        masks[0][0, 0] = True
        out = cleaner.apply_sequence(masks)
        assert out.shape == (2, 24, 24)
        assert not out[0, 0, 0]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConfigError):
            MaskCleaner().apply_sequence([])

    def test_validation(self):
        with pytest.raises(ConfigError):
            MaskCleaner(open_radius=-1)

    def test_improves_f1_on_noisy_scene(self, params):
        """End-to-end: hole-filling plus a small-area filter improves
        detection quality on the synthetic surveillance scene. (An
        opening is skipped deliberately: at this scale the pedestrians
        are only ~4 px wide, and an opening's erosion would eat them —
        structuring radii must stay below the smallest object size.)"""
        from repro import BackgroundSubtractor
        from repro.metrics.foreground import score_sequence
        from repro.video import surveillance_scene

        video = surveillance_scene(height=64, width=96)
        pairs = [video.frame_with_truth(t) for t in range(25)]
        bs = BackgroundSubtractor((64, 96), params, backend="cpu")
        masks, _ = bs.process([f for f, _ in pairs])
        truths = [t for _, t in pairs]
        raw = score_sequence(list(masks[15:]), truths[15:])
        cleaned = MaskCleaner(
            open_radius=0, close_radius=2, min_area=4
        ).apply_sequence(masks[15:])
        post = score_sequence(list(cleaned), truths[15:])
        assert post.f1 > raw.f1
