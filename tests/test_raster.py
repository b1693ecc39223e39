import json
import math
import pickle
from copy import deepcopy

import numpy as np
import pytest

import tmeseg.cli
import tmeseg.raster
from oracles import (
    brute_distance_band,
    convex_hull,
    edt_distance_band,
    exhaustive_otsu,
    exhaustive_otsu_hist,
    filled_blobs,
    ndimage_components,
    point_in_hull,
    rasterize_hull,
    union_find_components,
)
from test_stream import _traced_peak
from tmeseg.aggregate import aggregate
from tmeseg.cli import cli
from tmeseg.config import MITOSIS_MIN_AREA_PX
from tmeseg.container import (
    BundleReader,
    container_from_instances,
    container_from_labels,
    save_bundle,
    save_stack,
)
from tmeseg.raster import (
    _BLOCK,
    InstanceAttrs,
    InstanceMap,
    LogitStack,
    _otsu_rows,
    _runs,
    as_bitmask,
    blob_hulls,
    check_rgb_tile,
    connected_components,
    label_pieces,
    distance_band,
    gaussian_smooth,
    grayscale,
    otsu_threshold,
)
from tmeseg.reference import _blur, _gray_rows
from tmeseg.synth import build_bundle, random_scene
from tmeseg.taxonomy import VOCABULARY


# ---------------------------------------------------------------------------
# Smoothing and grayscale
# ---------------------------------------------------------------------------


def test_gaussian_smooth_matches_direct_convolution():
    rng = np.random.default_rng(11)
    for _ in range(5):
        he = rng.integers(0, 256, size=(40, 37, 3), dtype=np.uint8)
        # strided views too: the filter reads every line in float64 whatever
        # its stride; and frames one pixel high, wide, or both
        for img in (he, he[::2, 1:], he[:, :, ::-1], he[3:, ::3], he[:1, :1], he[:1], he[:, :1]):
            assert np.array_equal(gaussian_smooth(img), _blur(img, 2.0))


def test_planes_blur_bit_identically_to_the_interleaved_tile():
    rng = np.random.default_rng(12)
    for shape in ((1, 1), (1, 9), (9, 1), (40, 37), (120, 97)):
        he = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        planes = np.ascontiguousarray(np.moveaxis(he, 2, 0))
        smooth = gaussian_smooth(np.moveaxis(planes, 0, 2))
        want = gaussian_smooth(he)
        assert np.array_equal(smooth, want)
        assert np.moveaxis(smooth, 2, 0).flags.c_contiguous  # planes in, planes out
        assert np.array_equal(grayscale(smooth), grayscale(want))


def test_gaussian_smooth_constant_tile_unchanged():
    he = np.full((16, 16, 3), 170, dtype=np.uint8)
    assert np.array_equal(gaussian_smooth(he), he)


def test_grayscale_rounds_channel_mean():
    he = np.array([[[10, 11, 13], [0, 0, 1]]], dtype=np.uint8)
    gray = grayscale(he)
    assert gray.dtype == np.uint8
    # (10+11+13)/3 = 34/3 = 11.33 -> 11; 1/3 -> 0
    assert gray.tolist() == [[11, 0]]


def test_grayscale_half_even_rounding():
    # a mean of three integers is k, k + 1/3 or k + 2/3, never a half,
    # so the half-even tie rule never applies
    he = np.zeros((1, 2, 3), dtype=np.uint8)
    he[0, 0] = (1, 1, 2)  # mean 4/3 -> 1
    he[0, 1] = (2, 2, 3)  # mean 7/3 -> 2
    assert grayscale(he).tolist() == [[1, 2]]
    he[0, 0] = (1, 2, 2)  # mean 5/3 -> 2
    assert grayscale(he).tolist() == [[2, 2]]


def test_grayscale_equals_rounded_mean_for_every_channel_sum():
    sums = np.arange(766)
    he = np.stack([np.clip(sums - 255 * c, 0, 255) for c in range(3)], axis=-1)
    he = he.astype(np.uint8)[None]
    assert np.array_equal(he.sum(axis=2, dtype=np.int64)[0], sums)
    assert np.array_equal(grayscale(he)[0], np.rint(sums / 3.0).astype(np.uint8))


def test_grayscale_matches_reference_rows():
    rng = np.random.default_rng(13)
    for _ in range(5):
        h, w = rng.integers(1, 40, size=2)
        he = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert grayscale(he).tolist() == _gray_rows(he)


# ---------------------------------------------------------------------------
# Otsu
# ---------------------------------------------------------------------------


def test_otsu_matches_exhaustive_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 400))
        gray = rng.integers(0, 256, size=n).astype(np.uint8)
        assert otsu_threshold(gray) == exhaustive_otsu(gray.tolist())


def test_otsu_bimodal_and_uniform():
    lo = np.full(50, 40, dtype=np.uint8)
    hi = np.full(50, 200, dtype=np.uint8)
    t = otsu_threshold(np.concatenate([lo, hi]))
    assert 40 <= t < 200
    assert otsu_threshold(np.full(9, 77, dtype=np.uint8)) == 77


def test_otsu_two_values_ties_to_smallest_maximizer():
    gray = np.array([10, 10, 10, 20, 20, 20], dtype=np.uint8)
    assert otsu_threshold(gray) == exhaustive_otsu(gray.tolist())


def test_otsu_rows_tie_heavy_and_single_valued():
    rng = np.random.default_rng(31)
    rows = []
    for _ in range(120):
        row = np.zeros(256, dtype=np.int64)
        levels = rng.choice(256, size=int(rng.integers(1, 5)), replace=False)
        row[levels] = rng.integers(1, 4, size=levels.size)  # few values, small counts
        rows.append(row)
    for v in (0, 77, 255):  # single-valued rows
        rows.append(np.bincount([v], minlength=256) * 9)
    # mirror-symmetric rows: two different splits score exactly alike
    for a, b in ((1, 2), (5, 5), (3, 40)):
        row = np.zeros(256, dtype=np.int64)
        row[[0, 255]], row[[100, 155]] = a, b
        rows.append(row)
    assert _otsu_rows(np.array(rows)).tolist() == [exhaustive_otsu_hist(row) for row in rows]


def test_otsu_of_a_4096_square_frame_and_of_huge_counts():
    rng = np.random.default_rng(37)
    counts = rng.multinomial(4096 * 4096, rng.dirichlet(np.full(8, 0.5)))
    levels = np.sort(rng.choice(256, size=8, replace=False)).astype(np.uint8)
    gray = np.repeat(levels, counts).reshape(4096, 4096)
    hist = np.bincount(gray.ravel(), minlength=256)
    assert otsu_threshold(gray) == exhaustive_otsu_hist(hist.tolist())
    # counts past int64's reach for d = s0 * N - S * w0: Python ints. The
    # mirror-symmetric row's best splits, t = 0 and t = 128, tie exactly; one
    # count more or less at 255 breaks the tie by a relative 2**-60 or so,
    # below float64's resolution, so only the exact comparison can tell
    big = 1 << 60
    wanted = []
    for extra in (0, 1, -1):
        row = [0] * 256
        row[0], row[127], row[128], row[255] = big, 10 * big, 10 * big, big + extra
        wanted.append(exhaustive_otsu_hist(row))
        assert _otsu_rows(np.array([row], dtype=object)).tolist() == [wanted[-1]]
    assert sorted(set(wanted)) == [0, 128]


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def test_components_match_union_find():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mask = rng.random((24, 31)) < 0.42
        got = connected_components(mask)
        assert np.array_equal(got.ids, union_find_components(mask, 8))
        assert got.attrs == ndimage_components(mask).attrs


def test_components_id_order_is_raster_scan():
    mask = np.zeros((5, 7), dtype=bool)
    mask[4, 0] = True  # later in raster order
    mask[0, 6] = True  # first row, so first id
    comp = connected_components(mask)
    assert comp.ids[0, 6] == 1
    assert comp.ids[4, 0] == 2


def test_diagonal_touch_depends_on_connectivity():
    mask = np.array([[1, 0], [0, 1]], dtype=bool)
    assert len(connected_components(mask).instance_ids) == 1


def test_labelling_no_pixels_gives_no_regions():
    no_runs = [np.zeros(0, dtype=np.intp)] * 3  # they set no pixels, so they fit any frame
    for shape in [(5, 7), (5, 0), (0, 5), (0, 0)]:
        for regions in (
            connected_components(np.zeros(shape, dtype=bool)),
            label_pieces(shape, *no_runs),
        ):
            assert regions.attrs == {} and regions.instance_ids == []
            assert [a.size for a in (regions.index, regions.slot, regions.gids)] == [0, 0, 0]
            assert regions.ids.shape == shape and not regions.ids.any()
        assert [a.size for a in blob_hulls(np.zeros(shape, dtype=bool), 1)] == [0, 0, 0, 0]


def _caps(tops, height):
    """A serpentine: caps (upside-down U's) with tops on the rows ``tops``,
    joined foot to foot along the bottom row."""
    mask = np.zeros((height, 4 * len(tops) - 1), dtype=bool)
    for i, top in enumerate(tops):
        mask[top, 4 * i : 4 * i + 3] = True
        mask[top:, 4 * i] = mask[top:, 4 * i + 2] = True
        if i:
            mask[-1, 4 * i - 2 : 4 * i + 1] = True
    return mask


def _checkerboard(h, w):
    return np.indices((h, w)).sum(axis=0) % 2 == 0


def _adversarial_masks():
    """Named masks that stress the run labeller."""
    # tops in bit-reversed order: each hooking round joins only neighbouring
    # caps, so the serpentine takes five rounds to become one component
    tops = [int(format(i, "04b")[::-1], 2) for i in range(16)]
    corner = np.zeros((2, 9), dtype=bool)
    corner[0, 0:3], corner[1, 3:6] = True, True  # stop_a == start_b
    apart = np.zeros((2, 9), dtype=bool)
    apart[0, 0:3], apart[1, 4:7] = True, True  # one column further apart
    rng = np.random.default_rng(8)
    return {
        "serpentine": (_caps(tops, 18), 1),
        "checkerboard": (_checkerboard(33, 40), 1),
        "checkerboard-1xN": (_checkerboard(1, 9), 5),
        "all-true": (np.ones((17, 23), dtype=bool), 1),
        "1xN": (rng.random((1, 300)) < 0.5, None),
        "Nx1": (rng.random((300, 1)) < 0.5, None),
        "1x1": (np.ones((1, 1), dtype=bool), 1),
        "corner-to-corner": (corner, 1),
        "one-column-apart": (apart, 2),
    }


@pytest.mark.parametrize("name", sorted(_adversarial_masks()))
def test_components_on_adversarial_masks(name):
    mask, n = _adversarial_masks()[name]
    got = connected_components(mask)
    want = ndimage_components(mask)
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.attrs == want.attrs
    for name in ("index", "slot", "gids"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(got.ids, union_find_components(mask, 8))
    if n is not None:
        assert len(got.attrs) == n


# ---------------------------------------------------------------------------
# Blobs and hulls
# ---------------------------------------------------------------------------


def _hull_rows(blobs: list, shape: tuple[int, int]) -> list:
    """``rasterize_hull(convex_hull(blob))`` of each blob's (row, col)
    pixels as ``blob_hulls`` gives it: ``[hull, row, start, stop]`` lists."""
    out = [[], [], [], []]
    for k, blob in enumerate(blobs):
        region = rasterize_hull(convex_hull(blob[:, ::-1]), shape[::-1])
        row, start, stop = _runs(region)  # one run per row: the region is convex
        assert np.array_equal(row, np.unique(row))
        for part, vals in zip(out, ([k] * row.size, row, start, stop)):
            part += list(vals)
    return out


def _as_lists(arrays) -> list:
    return [a.tolist() for a in arrays]


def test_ring_blob_has_the_filled_square_hull():
    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 2:7] = True
    mask[3:6, 3:6] = False  # 3x3 hole
    assert _as_lists(blob_hulls(mask, 16)) == [[0] * 5, [2, 3, 4, 5, 6], [2] * 5, [7] * 5]
    # the ring's own 16 pixels: the hole is not filled
    assert blob_hulls(mask, 17)[0].size == 0


def test_blob_hulls_equal_filled_blob_hulls():
    rng = np.random.default_rng(23)
    masks = []
    for _ in range(600):
        h, w = rng.integers(1, 41, size=2).tolist()
        masks.append(rng.random((h, w)) < rng.uniform(0.2, 0.9))
    ring = np.pad(np.ones((5, 7), dtype=bool), 1)
    ring[2:5, 2:6] = False
    nested = ring.copy()
    nested[3, 3] = True  # a blob inside the ring's hole
    diamond = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    masks += [ring, nested, diamond, np.zeros((4, 4), dtype=bool)]
    for mask in masks:
        filled = filled_blobs(mask)
        labeled = ndimage_components(mask)
        # the area test counts each blob's own pixels, holes not filled
        counts = [labeled.attrs[g].pixel_count for g in labeled.instance_ids]
        for min_area in (1, MITOSIS_MIN_AREA_PX, 6):
            kept = [blob for blob, n in zip(filled, counts) if n >= min_area]
            assert _as_lists(blob_hulls(mask, min_area)) == _hull_rows(kept, mask.shape)
        assert [n >= MITOSIS_MIN_AREA_PX for n in counts] == [
            len(blob) >= MITOSIS_MIN_AREA_PX for blob in filled
        ]


def test_blob_hulls_of_thin_and_sloped_blobs():
    # points, segments of every slope and thin wedges: the degenerate hulls
    rng = np.random.default_rng(29)
    for _ in range(300):
        h, w = rng.integers(1, 30, size=2).tolist()
        mask = np.zeros((h, w), dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            y, x = rng.integers(0, h), rng.integers(0, w)
            dy, dx = rng.integers(-1, 2), rng.integers(-3, 4)
            for k in range(int(rng.integers(1, 12))):
                if 0 <= y + k * dy < h and 0 <= x + k * dx < w:
                    mask[y + k * dy, x + k * dx : x + k * dx + abs(dx) + 1] = True
        assert _as_lists(blob_hulls(mask, 1)) == _hull_rows(filled_blobs(mask), mask.shape)


def test_min_area_admits_the_smallest_holed_blob():
    from scipy import ndimage

    # no blob of 3 pixels or fewer has a hole: each fits in a 3x3 box
    for bits in range(1 << 9):
        small = np.array([(bits >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)
        if small.sum() <= 3:
            assert np.array_equal(ndimage.binary_fill_holes(small), small)
    diamond = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    # its area is its own 4 pixels, not the 5 of its filled hull
    assert blob_hulls(diamond, 4)[0].size == 3 and blob_hulls(diamond, 5)[0].size == 0
    assert ndimage.binary_fill_holes(diamond).sum() == 5
    assert MITOSIS_MIN_AREA_PX <= 4, (
        "mitosis_hulls tests a blob's area without filling its holes; this "
        "equals the filled-area test only while every blob with a hole, the "
        "smallest being this 4-pixel diamond, passes it"
    )


def test_convex_hull_contains_all_points():
    rng = np.random.default_rng(9)
    for _ in range(25):
        pts = rng.integers(0, 40, size=(int(rng.integers(1, 30)), 2))
        hull = convex_hull(pts)
        for x, y in pts.tolist():
            assert point_in_hull(x, y, hull.tolist())
        # idempotent: hull of hull vertices is the same cycle
        assert np.array_equal(convex_hull(hull), hull)


def test_convex_hull_collinear_degenerates_to_segment():
    pts = np.array([[0, 0], [2, 2], [5, 5], [3, 3]])
    assert convex_hull(pts).tolist() == [[0, 0], [5, 5]]


def test_rasterize_hull_matches_membership_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        pts = rng.integers(0, 18, size=(int(rng.integers(1, 12)), 2))
        hull = convex_hull(pts)
        region = rasterize_hull(hull, (18, 18))
        for y in range(18):
            for x in range(18):
                assert region[y, x] == point_in_hull(x, y, hull.tolist())


# ---------------------------------------------------------------------------
# Distance band
# ---------------------------------------------------------------------------


def test_distance_band_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(6):
        region = np.zeros((20, 20), dtype=bool)
        ys, xs = rng.integers(4, 16, size=6), rng.integers(4, 16, size=6)
        region[ys, xs] = True
        # sqrt(13) * sqrt(13) < 13 in float64, yet sqrt(13.0) <= sqrt(13): the
        # band holds offset (2, 3) only where _max_squared corrects floor(r * r)
        for radius_px in (1.0, 2.5, 4.0, math.sqrt(13)):
            got = distance_band(region, radius_px * 0.25, 0.25)
            assert np.array_equal(got, brute_distance_band(region, radius_px))
    # fragmented rows: runs of 1-3 pixels with every gap from 1 to 10 columns
    # between neighbours, so gaps fall below, at and above 2k for each dy
    region = np.zeros((24, 96), dtype=bool)
    for y in (6, 7, 12, 17):
        x = 3
        for gap in rng.permutation(np.arange(1, 11)).tolist():
            length = int(rng.integers(1, 4))
            region[y, x : x + length] = True
            x += length + gap
    for radius_px in (1.0, 1.5, 2.5, 3.0, 4.0, 4.5):
        got = distance_band(region, radius_px * 0.25, 0.25)
        assert np.array_equal(got, brute_distance_band(region, radius_px)), radius_px


@pytest.mark.parametrize(
    "radius_um, mpp",
    [(float("nan"), 0.25), (float("inf"), 0.25), (10.0, float("nan")), (10.0, float("inf"))],
)
def test_distance_band_rejects_non_finite(radius_um, mpp):
    region = np.zeros((8, 8), bool)
    region[3, 3] = True
    with pytest.raises(ValueError, match="finite"):
        distance_band(region, radius_um, mpp)


def test_distance_band_empty_and_full():
    for shape in [(8, 8), (5, 0), (0, 5), (0, 0)]:
        for region in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)):
            band = distance_band(region, 10.0, 0.25)
            assert band.shape == shape and band.dtype == bool
            assert not band.any()  # nothing near an empty region, nothing outside a full one


# (radius_um, mpp): r below 1 px, non-integer r, r an integer, r beyond
# every frame below, r = radius_um / mpp overflowing to inf
STRIP_RADII = [
    (0.1, 0.25),
    (0.2, 0.25),
    (1.0, 0.3),
    (2.5, 0.7),
    (3.0, 1.0),
    (5.0, 0.3),
    (50.0, 0.3),
    (1e6, 1.0),
    (1e300, 1e-10),
]


def _strip_region(rng, h, w, where):
    """A random region; ``where`` keeps it in the top or bottom quarter, or
    adds whole rows of region."""
    region = rng.random((h, w)) < rng.choice([0.002, 0.02, 0.2, 0.7])
    if where == "top":
        region[max(h // 4, 1) :] = False
    elif where == "bottom":
        region[: 3 * h // 4] = False
    elif where == "whole-rows":
        region[h // 3 : h // 2 + 1] = True
    return region


@pytest.mark.parametrize("block", [16, 64, 256])
@pytest.mark.parametrize("where", ["anywhere", "top", "bottom", "whole-rows"])
def test_strip_band_equals_whole_frame_transform(monkeypatch, block, where):
    # a small _BLOCK gives strips of a few rows, or of one row
    monkeypatch.setattr(tmeseg.raster, "_BLOCK", block)
    rng = np.random.default_rng(block + len(where))
    split = False  # some frame spans two strips or more
    for _ in range(20):
        h, w = (int(v) for v in rng.integers(1, 60, size=2))
        region = _strip_region(rng, h, w, where)
        # a strip's edge buffer is at least w + 1 wide and holds about _BLOCK counts
        split |= h > max(block // (w + 1), 1)
        for radius_um, mpp in STRIP_RADII:
            got = distance_band(region, radius_um, mpp)
            assert np.array_equal(got, edt_distance_band(region, radius_um, mpp)), (
                h, w, radius_um, mpp
            )
    assert split


@pytest.mark.parametrize("shape", [(1, 1), (1, 57), (57, 1), (2, 40), (40, 2)])
def test_strip_band_on_one_row_and_one_column_frames(monkeypatch, shape):
    monkeypatch.setattr(tmeseg.raster, "_BLOCK", 16)
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(10):
        region = rng.random(shape) < 0.1
        for radius_um, mpp in STRIP_RADII:
            got = distance_band(region, radius_um, mpp)
            assert np.array_equal(got, edt_distance_band(region, radius_um, mpp))


def test_forced_strips_match_brute_force(monkeypatch):
    monkeypatch.setattr(tmeseg.raster, "_BLOCK", 8)
    rng = np.random.default_rng(33)
    for _ in range(12):
        h, w = (int(v) for v in rng.integers(1, 16, size=2))
        region = rng.random((h, w)) < 0.08
        for radius_px in (0.5, 1.0, 1.5, 2.0, 50 / 0.3 / 40, 6.0, 30.0):
            got = distance_band(region, radius_px * 0.25, 0.25)
            assert np.array_equal(got, brute_distance_band(region, radius_px))


def _margin_region(h, w):
    """A disc of radius 300 at the frame's centre, plus sparse specks."""
    yy, xx = np.ogrid[:h, :w]
    region = (yy - h // 2) ** 2 + (xx - w // 2) ** 2 < 300**2
    region |= np.random.default_rng(h + w).random((h, w)) < 0.001
    return region


def test_strip_band_peak_is_a_fraction_of_the_whole_frame_transform():
    region = _margin_region(2048, 2048)
    distance_band(region[:8, :8], 1.0, 1.0)  # first-call costs are not the band's
    # r = 200 px; measured 8.7 MB against 154 MB for the whole-frame transform
    strips = _traced_peak(lambda: distance_band(region, 50.0, 0.25))
    whole = _traced_peak(lambda: edt_distance_band(region, 50.0, 0.25))
    assert strips <= 0.4 * whole


def test_strip_band_working_memory_does_not_grow_with_height():
    square, tall = _margin_region(1024, 1024), _margin_region(4096, 1024)
    distance_band(square[:8, :8], 1.0, 1.0)  # first-call costs are not the band's
    # r = 50 px. The returned band, 1 byte per frame pixel, is the result
    # and grows with the frame; the memory above it does not (measured
    # 4.3 MB square, 4.5 MB tall).
    peaks = [
        _traced_peak(lambda: distance_band(region, 12.5, 0.25)) - region.size
        for region in (square, tall)
    ]
    assert peaks[1] <= 1.1 * peaks[0]


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


def test_logit_stack_validation():
    with pytest.raises(ValueError):
        LogitStack((1, 1), np.zeros((2, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        LogitStack((1, 2), np.zeros((3, 4, 4), dtype=np.float32))
    stack = LogitStack((2, 3), np.zeros((2, 4, 5), dtype=np.float32))
    assert stack.plane(3).shape == (4, 5)
    with pytest.raises(KeyError):
        stack.plane(9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_finite_checks_every_block(bad):
    # the constructor's finiteness check, which leaves a refused array writable
    planes = np.zeros((1, 1, _BLOCK + 1), dtype=np.float32)
    LogitStack((1,), planes.copy())
    flat = planes.reshape(-1)
    for pos in (0, _BLOCK - 1, _BLOCK, flat.size - 1):
        flat[pos] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            LogitStack((1,), planes)
        flat[pos] = 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_rgb_tile(np.zeros((4, 4), np.uint8)), r"must be \(H, W, 3\) uint8"),
        (lambda: check_rgb_tile(np.zeros((4, 4, 3), np.uint16)), r"must be \(H, W, 3\) uint8"),
        (lambda: check_rgb_tile(np.zeros((0, 4, 3), np.uint8)), "at least 1x1"),
        (lambda: otsu_threshold(np.zeros((0, 4), np.uint8)), "raster is empty"),
        (lambda: otsu_threshold(np.zeros((4, 4), np.int16)), "expects 8-bit values"),
        (lambda: as_bitmask(np.zeros((4, 4), np.uint8)), "2-d bool array"),
        (lambda: as_bitmask(np.zeros((2, 4, 4), bool)), "2-d bool array"),
        (lambda: InstanceMap(np.zeros((2, 4, 4), np.int32)), "2-d raster"),
        (
            lambda: InstanceMap.from_pixels((2, 2), np.array([0, 3]), np.array([0, 4])),
            "instance ids must be positive",
        ),
    ],
    ids=["rgb-2d", "rgb-uint16", "rgb-empty", "otsu-empty", "otsu-int16", "bitmask-uint8",
         "bitmask-3d", "instances-3d", "instances-id-0"],
)
def test_raster_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_instance_map_attrs_from_ids():
    ids = np.zeros((6, 6), dtype=np.int32)
    ids[1:3, 1:3] = 4
    ids[4, 4] = 9
    imap = InstanceMap.from_ids(ids, {4: 7})
    assert imap.instance_ids == [4, 9]
    assert imap.attrs[4].pixel_count == 4
    assert imap.attrs[4].centroid == (1.5, 1.5)
    assert imap.attrs[4].teacher_type == 7
    assert imap.attrs[9].pixel_count == 1
    assert imap.attrs[9].teacher_type is None


@pytest.mark.parametrize("other", [5, 2**31 - 1])  # ids up to / far above the pixel count
def test_instance_counts_for_dense_and_sparse_ids(other):
    ids = np.zeros((6, 6), dtype=np.int32)
    ids[1:3, 1:3] = 4
    ids[4, 4] = other
    imap = InstanceMap.from_ids(ids)
    assert imap.instance_ids == [4, other]
    assert imap.attrs[other].pixel_count == 1
    assert imap.attrs[other].centroid == (4.0, 4.0)
    # the records are derived from the pixels and cannot be changed or dropped
    with pytest.raises(AttributeError):
        imap.attrs[other].pixel_count = 2
    with pytest.raises(TypeError):
        del imap.attrs[other]
    assert imap.attrs[other].pixel_count == 1
    with pytest.raises(ValueError, match="non-negative"):
        InstanceMap.from_ids(-ids)


@pytest.mark.parametrize(
    "ids",
    [
        np.array([[0, 2**32 + 5]]),  # int64: a cast would make it nucleus 5
        np.array([[0, 2**31]], np.uint32),  # a cast would make it negative
        np.array([[0.5, 7.9]]),  # a cast would make it nucleus 7 and drop a pixel
        np.array([[False, True]]),
    ],
    ids=["int64-beyond-uint32", "uint32-2**31", "float", "bool"],
)
def test_instance_map_refuses_ids_a_cast_would_change(ids):
    with pytest.raises(ValueError, match="non-negative integers below 2\\*\\*31"):
        InstanceMap(ids)


@pytest.mark.parametrize("other", [9, 10**6])
def test_pixel_groups_slot_present_ids(other):
    ids = np.zeros((4, 5), dtype=np.int32)
    ids[0, 1] = other
    ids[1, 0:2] = 4
    ids[3, 4] = other
    imap = InstanceMap(ids)
    rows, cols = np.divmod(imap.index, imap.shape[1])
    assert imap.gids.tolist() == [4, other]
    assert rows.tolist() == [0, 1, 1, 3] and cols.tolist() == [1, 0, 1, 4]
    assert imap.gids[imap.slot].tolist() == [other, 4, 4, other]
    empty = InstanceMap(np.zeros((2, 2), np.int32))
    assert [a.size for a in (empty.index, empty.slot, empty.gids)] == [0, 0, 0]


def test_pixel_groups_across_scan_blocks():
    ids = np.zeros((3, _BLOCK // 2 + 7), dtype=np.int32)  # spans two blocks
    ids[0, 5] = ids[1, -1] = ids[2, 3] = 8
    ids[1, 0] = ids[2, -2] = 3
    imap = InstanceMap(ids)
    rows, cols = np.divmod(imap.index, imap.shape[1])
    want_rows, want_cols = np.nonzero(ids)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert np.array_equal(imap.gids[imap.slot], ids[want_rows, want_cols])


@pytest.mark.parametrize("ghost", [2, 10**6])
def test_validate_rejects_attribute_records_without_pixels(ghost):
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[0, :2] = 1
    ids[2, 2] = 3
    imap = InstanceMap.from_ids(ids)
    assert set(imap.attrs) == {1, 3}  # a record for each id with pixels, and none else
    with pytest.raises(TypeError):
        imap.attrs[ghost] = InstanceAttrs(pixel_count=0, centroid=(0.0, 0.0))
    assert ghost not in imap.attrs


def test_a_map_built_from_a_raster_is_valid():
    ids = np.zeros((5, 6), dtype=np.int32)
    ids[1:3, 1:4] = 7
    ids[4, 0] = 2
    imap = InstanceMap(ids, {7: 3})
    assert imap.instance_ids == [2, 7] and imap.attrs[7].teacher_type == 3
    assert [imap.attrs[g].pixel_count for g in (2, 7)] == [1, 6]
    assert imap.shape == (5, 6) and np.array_equal(imap.ids, ids)


def test_ids_are_read_only():
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[1, 1:3] = 5
    scanned = InstanceMap(ids)
    index = np.array([7, 8])
    painted = InstanceMap.from_pixels((4, 4), index, np.array([4, 9]))
    assert painted.ids.tolist() == [[0, 0, 0, 0], [0, 0, 0, 4], [9, 0, 0, 0], [0, 0, 0, 0]]
    for imap in (scanned, painted):
        with pytest.raises(ValueError, match="read-only"):
            imap.ids[0, 0] = 1
        for arr in (imap.index, imap.slot, imap.gids):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
    assert ids.flags.writeable  # the raster is scanned, not kept: the caller's stays writable
    assert scanned.ids is not ids and not np.shares_memory(scanned.ids, ids)
    assert painted.index is index and not index.flags.writeable  # kept, as LogitStack keeps planes


def test_a_callers_later_write_does_not_reach_a_built_map():
    ids = np.eye(3, dtype=np.int32)
    scanned = InstanceMap(ids)
    ids[0, 0] = 0
    assert scanned.ids[0, 0] == 1 and scanned.attrs[1].pixel_count == 3
    assert scanned.index.tolist() == [0, 4, 8]

    idx = np.array([0, 4, 8])
    painted = InstanceMap.from_pixels((3, 3), idx, np.array([1, 1, 1]))
    with pytest.raises(ValueError, match="read-only"):
        idx[2] = 5
    base = np.array([0, 4, 8, 9])
    viewed = InstanceMap.from_pixels((3, 3), base[:3], np.array([1, 1, 1]))
    base[2] = 5  # a view is copied, so its base stays the caller's
    for imap in (painted, viewed):
        assert imap.index.tolist() == [0, 4, 8] and imap.attrs[1].centroid == (1.0, 1.0)
        assert imap.ids.tolist() == np.eye(3, dtype=np.int32).tolist()


def test_no_attribute_of_a_built_map_can_be_set_or_deleted():
    scanned = InstanceMap(np.eye(3, dtype=np.int32))
    painted = InstanceMap.from_pixels((3, 3), np.array([0, 4, 8]), np.array([1, 1, 1]))
    for imap in (scanned, painted):
        for name in ("attrs", "index", "slot", "gids", "shape", "ids"):
            with pytest.raises(AttributeError, match="fixed once built"):
                setattr(imap, name, getattr(imap, name))
        with pytest.raises(AttributeError, match="fixed once built"):
            imap.attrs = {}
        for name in ("gids", "ids"):
            with pytest.raises(AttributeError, match="fixed once built"):
                delattr(imap, name)
        assert imap.instance_ids == [1] and imap.gids.tolist() == [1]
        assert np.array_equal(imap.ids, np.eye(3, dtype=np.int32))


def _kept_bytes(imap: InstanceMap) -> int:
    """The bytes of the ndarrays a map keeps, alone or in tuples, except its id raster."""
    kept = [v for name, v in vars(imap).items() if name != "ids"]
    arrays = [a for v in kept for a in (v if isinstance(v, tuple) else (v,))]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def test_a_map_keeps_at_most_16_bytes_per_pixel_and_8_per_id():
    comps = connected_components(np.random.default_rng(4).random((64, 80)) < 0.4)
    index = comps.index
    maps = {
        "connected_components": comps,
        "raster": InstanceMap(comps.ids),
        "from_pixels": InstanceMap.from_pixels(comps.shape, index, comps.ids.flat[index]),
    }
    for name, imap in maps.items():
        assert imap.index.size > 1000 and len(imap.attrs) > 50, name
        assert _kept_bytes(imap) <= 16 * imap.index.size + 8 * len(imap.attrs), name


def test_a_map_pickles_and_copies_as_a_map_of_the_same_pixels():
    ids = np.zeros((4, 5), dtype=np.int32)
    ids[1, 1:3] = 5
    ids[3, 4] = 2**31 - 1
    imap = InstanceMap(ids, {5: 7})
    for copy in (pickle.loads(pickle.dumps(imap)), deepcopy(imap)):
        assert copy.shape == imap.shape and copy.attrs == imap.attrs
        assert np.array_equal(copy.ids, ids)
        for name in ("index", "slot", "gids"):
            got = getattr(copy, name)
            assert np.array_equal(got, getattr(imap, name)) and not got.flags.writeable
        with pytest.raises(TypeError):
            copy.attrs[5] = InstanceAttrs(pixel_count=0, centroid=(0.0, 0.0))
    # stacks and bundles are copied through their constructors, so they stay checked
    bundle = build_bundle(random_scene(2))
    for copy in (pickle.loads(pickle.dumps(bundle)), deepcopy(bundle)):
        assert type(copy) is type(bundle) and copy.mitosis_candidates == bundle.mitosis_candidates
        assert copy.nuclei.attrs == bundle.nuclei.attrs
        pairs = [(copy.he, bundle.he)]
        for name in ("tissue_logits", "cell_logits"):
            got, want = getattr(copy, name), getattr(bundle, name)
            assert type(got) is LogitStack and got.class_ids == want.class_ids
            pairs.append((got.planes, want.planes))
        for got, want in pairs:
            assert np.array_equal(got, want) and not got.flags.writeable
    stack = bundle.cell_logits
    for copy in (pickle.loads(pickle.dumps(stack)), deepcopy(stack)):
        assert copy.class_ids == stack.class_ids and np.array_equal(copy.planes, stack.planes)
        with pytest.raises(ValueError, match="read-only"):
            copy.planes[0, 0, 0] = np.nan


def _evaluated_nuclei(tmp_path, monkeypatch, nuclei: InstanceMap) -> InstanceMap:
    """The nuclei ``tmeseg evaluate`` scores when every other one is null in
    ``--gt-classes``."""
    paths = {name: tmp_path / f"{name}.tmef" for name in ("nuclei", "gt", "pred")}
    save_stack(container_from_instances(nuclei), paths["nuclei"])
    for name in ("gt", "pred"):
        save_stack(container_from_labels(np.zeros(nuclei.shape, np.uint8)), paths[name])
    lymphocyte = VOCABULARY.resolve("lymphocyte")
    classes = {str(g): lymphocyte if i % 2 else None for i, g in enumerate(nuclei.instance_ids)}
    (tmp_path / "classes.json").write_text(json.dumps({"classes": classes}))
    (tmp_path / "map.json").write_text(
        json.dumps({"eval_classes": ["lymphocyte"], "map": {"lymphocyte": "lymphocyte"}})
    )
    seen = []
    evaluate = tmeseg.cli.evaluate_instances
    monkeypatch.setattr(
        tmeseg.cli, "evaluate_instances", lambda n, *rest: seen.append(n) or evaluate(n, *rest)
    )
    argv = ["evaluate", "--gt", str(paths["gt"]), "--pred", str(paths["pred"]),
            "--nuclei", str(paths["nuclei"]), "--gt-classes", str(tmp_path / "classes.json"),
            "--map", str(tmp_path / "map.json"), "--out", str(tmp_path / "report.json")]
    assert cli(argv) == 0
    assert seen[0].instance_ids == nuclei.instance_ids[1::2]
    return seen[0]


def test_every_source_of_a_map_stores_its_ascending_pixel_index(tmp_path, monkeypatch):
    bundle = build_bundle(random_scene(6))
    with BundleReader(save_bundle(bundle, tmp_path)) as reader:
        streamed = reader.reduce().nuclei
    rng = np.random.default_rng(9)
    row = rng.integers(0, 24, size=40)
    start = rng.integers(0, 28, size=40)
    sources = {
        "raster scan": InstanceMap(bundle.nuclei.ids),
        "BundleReader": streamed,
        "connected_components": connected_components(rng.random((24, 31)) < 0.42),
        "label_pieces": label_pieces((24, 31), row, start, start + rng.integers(1, 4, size=40)),
        "detect_mitosis": aggregate(bundle).mitosis,
        "evaluate": _evaluated_nuclei(tmp_path, monkeypatch, bundle.nuclei),
    }
    for name, imap in sources.items():
        assert imap.index.size and imap.slot.size == imap.index.size, name
        assert 0 <= imap.index[0] and imap.index[-1] < imap.shape[0] * imap.shape[1], name
        assert (np.diff(imap.index) > 0).all() and (np.diff(imap.gids) > 0).all(), name
        for arr in (imap.index, imap.slot, imap.gids):
            assert not arr.flags.writeable, name
        assert all(type(n) is int for n in imap.shape), name
        counts = np.bincount(imap.slot).tolist()
        assert [imap.attrs[g].pixel_count for g in imap.instance_ids] == counts, name


def test_reducing_a_bundle_never_rescans_its_nuclei(monkeypatch):
    bundle = build_bundle(random_scene(3))
    calls = []
    group_ids = tmeseg.raster._group_ids
    monkeypatch.setattr(
        tmeseg.raster, "_group_ids", lambda vals: calls.append(vals.size) or group_ids(vals)
    )
    inputs = bundle.reduce()
    assert calls == []
    for name in ("index", "slot", "gids"):
        assert getattr(inputs.nuclei, name) is getattr(bundle.nuclei, name)
