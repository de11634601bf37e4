"""Differential tests for the colour and threshold front end of the dark pipeline.

Three pieces are pinned byte for byte against the plain forms they replace:

- the banded luma kernel behind ``luminance`` and ``split_channels``,
  against the whole-frame BT.601 expressions, at heights around one band,
  on strided views and on float32 and uint8 input;
- ``histogram``'s one-pass count, against ``np.histogram`` on every bin
  edge and its neighbours, on 1.0, -0.0, subnormals, NaN, infinities,
  out-of-range values and rendered night luma;
- ``DarkVehicleDetector.preprocess``, which computes Cr only where the
  luma test passes, against the full-plane oracle of
  ``test_dark_front_end``, traced and untraced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.imaging import color
from repro.imaging.color import luminance, split_channels
from repro.imaging.threshold import histogram
from repro.pipelines.dark import DarkConfig, DarkStageTrace, DarkVehicleDetector

from tests.equivalence.test_dark_front_end import assert_bytes_equal, night_frame, oracle_masks

pytestmark = pytest.mark.equivalence

_KR, _KG, _KB = 0.299, 0.587, 0.114
BAND = color._BAND_ROWS


def oracle_planes(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-frame Y, Cb, Cr of the float64 image."""
    arr = np.asarray(rgb).astype(np.float64)
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    y = _KR * r + _KG * g + _KB * b
    return y, (b - y) / (2.0 * (1.0 - _KB)), (r - y) / (2.0 * (1.0 - _KR))


def oracle_histogram(plane: np.ndarray, bins: int, value_range=(0.0, 1.0)) -> np.ndarray:
    return np.histogram(plane, bins=bins, range=value_range)[0].astype(np.int64)


def layout(rgb: np.ndarray, kind: str) -> np.ndarray:
    """``rgb`` as a contiguous array or as one of three non-contiguous views."""
    if kind == "contiguous":
        return np.ascontiguousarray(rgb)
    if kind == "strided":
        # Every other row and column of a larger buffer, channels 1:4 of 5.
        height, width, _ = rgb.shape
        buffer = np.zeros((2 * height, 2 * width, 5), dtype=rgb.dtype)
        buffer[::2, 1::2, 1:4] = rgb
        return buffer[::2, 1::2, 1:4]
    if kind == "channel_reversed":
        return np.ascontiguousarray(rgb[..., ::-1])[..., ::-1]
    if kind == "transposed":
        return np.ascontiguousarray(rgb.transpose(1, 0, 2)).transpose(1, 0, 2)
    raise ValueError(kind)


def random_rgb(height: int, width: int, dtype, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        return rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
    return rng.random((height, width, 3)).astype(dtype)


HEIGHTS = [1, BAND - 1, BAND, BAND + 1, 360]
LAYOUTS = ["contiguous", "strided", "channel_reversed", "transposed"]


class TestBandedLuma:
    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_luminance_matches_whole_frame_formula(self, height, kind):
        rgb = layout(random_rgb(height, 53, np.float64, height), kind)
        got = luminance(rgb)
        assert_bytes_equal(got, oracle_planes(rgb)[0])
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_split_channels_matches_whole_frame_formulas(self, height, kind):
        rgb = layout(random_rgb(height, 47, np.float64, height + 1), kind)
        for got, want in zip(split_channels(rgb), oracle_planes(rgb)):
            assert_bytes_equal(got, want)
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_narrow_dtypes_match_float64_formulas(self, height, dtype):
        rgb = layout(random_rgb(height, 61, dtype, height + 2), "strided")
        want = oracle_planes(rgb)
        assert_bytes_equal(luminance(rgb), want[0])
        for got, plane in zip(split_channels(rgb), want):
            assert_bytes_equal(got, plane)

    def test_full_width_frame(self):
        rgb = night_frame(360, 640, 7)
        assert_bytes_equal(luminance(rgb), oracle_planes(rgb)[0])


def edge_values(bins: int) -> np.ndarray:
    """Every edge ``k / bins`` and the floats on either side of it inside [0, 1].

    The two neighbours outside [0, 1] are left out: one of them in the
    plane would send the whole plane to ``np.histogram``.
    """
    edges = np.arange(bins + 1) / bins
    values = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return values[(values >= 0.0) & (values <= 1.0)]


SPECIALS = {
    "one": [1.0, 1.0, 0.5],
    "negative_zero": [-0.0, 0.0, -0.0],
    "subnormals": [5e-324, 2.2250738585072009e-308, np.nextafter(0.0, 1.0)],
    "nan": [np.nan, 0.25, 0.75],
    "infinities": [np.inf, -np.inf, 0.5],
    "above_one": [1.0000000000000002, 1.5, 0.5],
    "below_zero": [-1e-300, -0.5, 0.5],
}


class TestHistogram:
    @pytest.mark.parametrize("bins", [2, 4, 128, 256, 1024, 3, 100, 255])
    def test_every_edge_and_its_neighbours(self, bins):
        plane = edge_values(bins).reshape(1, -1)
        assert_bytes_equal(histogram(plane, bins=bins), oracle_histogram(plane, bins))

    @pytest.mark.parametrize("bins", [256, 100])
    @pytest.mark.parametrize("name", sorted(SPECIALS))
    def test_special_values(self, name, bins):
        values = np.array(SPECIALS[name])
        plane = np.concatenate([values, np.linspace(0.0, 1.0, 9)]).reshape(3, 4)
        assert_bytes_equal(histogram(plane, bins=bins), oracle_histogram(plane, bins))

    @pytest.mark.parametrize("bins", [256, 100])
    def test_all_out_of_range_plane(self, bins):
        plane = np.array([[-1.0, 2.0, np.nan], [np.inf, -np.inf, 1.5]])
        got = histogram(plane, bins=bins)
        assert_bytes_equal(got, oracle_histogram(plane, bins))
        assert not got.any()

    @pytest.mark.parametrize("height,width,seed", [(360, 640, 5), (180, 330, 99)])
    def test_rendered_night_luma(self, height, width, seed):
        luma = luminance(night_frame(height, width, seed))
        assert_bytes_equal(histogram(luma), oracle_histogram(luma, 256))

    @settings(max_examples=200, deadline=None)
    @given(
        bins=st.one_of(st.sampled_from([2, 4, 8, 64, 128, 256, 512]), st.integers(2, 300)),
        value_range=st.sampled_from([(0.0, 1.0), (0.0, 0.5), (-0.5, 0.5), (0.25, 1.0)]),
        data=st.data(),
    )
    def test_matches_np_histogram(self, bins, value_range, data):
        # Half the planes hold only values in [0, 1], the one-pass count's
        # domain; the rest may hold any float.
        edge = st.integers(0, bins).map(lambda k: k / bins)
        value = st.one_of(
            st.floats(0.0, 1.0),
            edge,
            edge.map(lambda x: float(np.nextafter(x, -np.inf))).filter(lambda x: x >= 0.0),
            edge.map(lambda x: float(np.nextafter(x, np.inf))).filter(lambda x: x <= 1.0),
        )
        if data.draw(st.booleans(), label="wild"):
            value = st.one_of(value, st.floats(allow_subnormal=True))
        values = data.draw(st.lists(value, min_size=1, max_size=60))
        plane = np.array(values, dtype=np.float64).reshape(1, -1)
        assert_bytes_equal(
            histogram(plane, bins=bins, value_range=value_range),
            oracle_histogram(plane, bins, value_range),
        )


def lamp_frame(seed: int) -> np.ndarray:
    """Random pixels: about half pass a 0.5 luma test, with every redness."""
    return np.random.default_rng(seed).random((48, 66, 3))


CONFIGS = {
    "otsu": {},
    "luma_only": {"use_chroma": False},
}


class TestPreprocessMasks:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_traced_and_untraced_match_oracle(self, name):
        detector = DarkVehicleDetector(DarkConfig(**CONFIGS[name]))
        for rgb in [night_frame(180, 330, 99), night_frame(120, 210, 3), lamp_frame(4)]:
            want = oracle_masks(detector, rgb)
            trace = DarkStageTrace()
            traced = detector.preprocess(rgb, trace=trace)
            untraced = detector.preprocess(rgb)
            assert_bytes_equal(untraced, traced)
            assert_bytes_equal(untraced, want["processed_mask"])
            for key, mask in want.items():
                got = getattr(trace, key)
                if mask is None:
                    assert got is None
                else:
                    assert_bytes_equal(got, mask)

    def test_lamp_frame_exercises_the_chroma_test(self):
        # The chroma test must both keep and drop lit pixels here, or the
        # frame could not tell Cr at the lit pixels from Cr anywhere else.
        masks = oracle_masks(DarkVehicleDetector(), lamp_frame(4))
        lit = masks["luma_mask"]
        assert 0 < np.count_nonzero(masks["merged_mask"]) < np.count_nonzero(lit)
        assert np.count_nonzero(masks["chroma_mask"] & ~lit) > 0
