"""Morphological mask cleanup and component extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from repro.errors import ConfigError
from repro.post import MaskCleaner, clean_mask, connected_components


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
