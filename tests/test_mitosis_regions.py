"""Mitosis hull regions labelled without a frame, against the whole-frame
labelling of ``oracles.frame_detect_mitosis``."""

import dataclasses

import numpy as np
import pytest
from oracles import (
    frame_detect_mitosis,
    frame_mitosis_hits,
    ndimage_components,
    union_find_components,
)
from test_stream import _traced_peak

import tmeseg.aggregate
from tmeseg.aggregate import (
    aggregate,
    apply_mitosis,
    detect_mitosis,
    mitosis_hulls,
    roi_sums,
)
from tmeseg.config import RunConfig
from tmeseg.container import BundleReader, save_bundle
from tmeseg.raster import InstanceMap, label_pieces
from tmeseg.reference import reference_aggregate
from tmeseg.synth import TISSUE_INK, Disc, build_bundle, random_scene, throughput_bundle
from tmeseg.taxonomy import EPITHELIAL_TISSUE, MITOTIC_CELL, STROMA

SMALL_ROI = 5  # the mitosis ROI radius for the hand-built scenes


def _set_roi_radius(monkeypatch, radius):
    """Patch the ROI radius that ``mitosis_hulls`` and the oracle both read."""
    monkeypatch.setattr(tmeseg.aggregate, "MITOSIS_ROI_RADIUS_PX", radius)


@pytest.fixture
def small_roi(monkeypatch):
    _set_roi_radius(monkeypatch, SMALL_ROI)


def _same_attrs(got, want):
    assert list(got) == list(want)
    for gid, a in want.items():
        b = got[gid]
        assert (b.pixel_count, b.teacher_type) == (a.pixel_count, a.teacher_type)
        assert np.array(b.centroid).tobytes() == np.array(a.centroid).tobytes()


def _assert_equivalent(got, want: InstanceMap, nuclei: InstanceMap):
    """Same ids, attrs, pixel arrays and supersedence hits as the frame labelling."""
    assert isinstance(got, InstanceMap)
    assert got.ids.tobytes() == want.ids.tobytes()
    _same_attrs(got.attrs, want.attrs)
    assert len(got.instance_ids) == len(want.instance_ids)
    for name in ("index", "slot", "gids"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert nuclei.gids[apply_mitosis(nuclei, got)].tolist() == frame_mitosis_hits(nuclei, want)


def _scene(h, w, blobs, tissue_class=EPITHELIAL_TISSUE):
    """Ink tile with dark pixels at ``blobs`` (lists of (row, col)) and a
    one-pixel nucleus on the first pixel of each blob."""
    he = np.full((h, w, 3), TISSUE_INK, dtype=np.uint8)
    ids = np.zeros((h, w), dtype=np.int32)
    for i, blob in enumerate(blobs, start=1):
        rows, cols = np.array(blob).T
        he[rows, cols] = 20
        ids[rows[0], cols[0]] = i
    tissue = np.full((h, w), tissue_class, dtype=np.uint8)
    return he, tissue, InstanceMap.from_ids(ids)


def _tissue(bundle, config=None):
    """The bundle's tissue raster: ``aggregate``'s semantic once its nuclei
    are emptied, so that no nucleus class paints over it."""
    empty = InstanceMap.from_ids(np.zeros_like(bundle.nuclei.ids))
    return aggregate(dataclasses.replace(bundle, nuclei=empty), config).semantic


def _square(top, left, size):
    return [(top + r, left + c) for r in range(size) for c in range(size)]


def _check(candidates, he, tissue, nuclei):
    got = detect_mitosis(candidates, he, tissue)
    want = frame_detect_mitosis(candidates, he, tissue)
    _assert_equivalent(got, want, nuclei)
    return got


def _piece_boxes(candidates, he):
    """Each hull's (top, left, bottom, right) frame pixels, in candidate order."""
    boxes = []
    for hull, row, start, stop in mitosis_hulls(candidates, he):
        for k in range(hull.size and hull.max() + 1):
            on = hull == k
            box = row[on].min(), start[on].min(), row[on].max(), stop[on].max() - 1
            boxes.append(tuple(int(v) for v in box))
    return boxes


# ---------------------------------------------------------------------------
# detect_mitosis against the frame-based oracle
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("small_roi")
def test_hulls_touching_only_diagonally_across_boxes_are_one_region():
    he, tissue, nuclei = _scene(30, 30, [_square(10, 10, 3), _square(13, 13, 3)])
    candidates = [(8.5, 8.5, 0.9), (16.5, 16.5, 0.9)]
    # two pieces whose boxes are disjoint; only the grown boxes meet
    assert _piece_boxes(candidates, he) == [(10, 10, 12, 12), (13, 13, 15, 15)]
    got = _check(candidates, he, tissue, nuclei)
    assert len(got.instance_ids) == 1


@pytest.mark.usefixtures("small_roi")
def test_boxes_touching_without_touching_pixels_are_two_regions():
    anti_diagonal = [(10, 12), (11, 11), (12, 10)]
    corner = [(13, 13), (13, 14), (14, 13)]
    he, tissue, nuclei = _scene(30, 30, [anti_diagonal, corner])
    candidates = [(9.0, 9.0, 0.9), (16.0, 16.0, 0.9)]
    assert _piece_boxes(candidates, he) == [(10, 10, 12, 12), (13, 13, 14, 14)]
    got = _check(candidates, he, tissue, nuclei)
    assert len(got.instance_ids) == 2


def test_overlapping_hulls_of_two_candidates_are_one_region(monkeypatch):
    bar = [(r, c) for r in range(20, 23) for c in range(10, 31)]
    he, tissue, nuclei = _scene(40, 50, [bar])
    _set_roi_radius(monkeypatch, 8)
    for candidates in (
        [(14.0, 21.0, 0.9), (26.0, 21.0, 0.9)],  # each ROI sees part of the bar
        [(20.0, 21.0, 0.9), (20.0, 21.0, 0.9)],  # the same hull twice
    ):
        assert len(_piece_boxes(candidates, he)) == 2
        got = _check(candidates, he, tissue, nuclei)
        assert len(got.instance_ids) == 1


@pytest.mark.usefixtures("small_roi")
def test_hulls_clipped_at_every_frame_edge():
    h, w = 40, 50
    centres = {"top": (0, 25), "bottom": (h - 1, 10), "left": (20, 0), "right": (30, w - 1)}
    blobs = [
        list(zip(*Disc(y, x, 2.5).pixels(h, w))) for y, x in centres.values()
    ] + [_square(0, 0, 2) + [(2, 0)]]  # the top-left corner
    he, tissue, nuclei = _scene(h, w, blobs)
    candidates = [(float(x), float(y), 0.9) for y, x in centres.values()]
    candidates += [(-2.0, -2.0, 0.9)]  # in the halo, outside the frame
    got = _check(candidates, he, tissue, nuclei)
    assert len(got.instance_ids) == 5
    edges = got.ids > 0
    assert edges[0].any() and edges[-1].any() and edges[:, 0].any() and edges[:, -1].any()


@pytest.mark.usefixtures("small_roi")
def test_candidates_out_of_raster_order():
    centres = [(30, 40), (5, 5), (20, 10), (5, 40), (31, 8)]
    blobs = [list(zip(*Disc(y, x, 2.0).pixels(40, 50))) for y, x in centres]
    he, tissue, nuclei = _scene(40, 50, blobs)
    candidates = [(float(x), float(y), 0.9) for y, x in centres]
    got = _check(candidates, he, tissue, nuclei)
    assert len(got.instance_ids) == 5
    # ids follow the raster order of the regions, not the candidate order
    firsts = [int(np.flatnonzero(got.ids.ravel() == g)[0]) for g in got.instance_ids]
    assert firsts == sorted(firsts)


@pytest.mark.usefixtures("small_roi")
def test_no_kept_hull():
    he, tissue, nuclei = _scene(30, 30, [_square(10, 10, 3)])
    for candidates, tis in (([], tissue), ([(11.0, 11.0, 0.9)], np.full_like(tissue, STROMA))):
        got = _check(candidates, he, tis, nuclei)
        assert got.instance_ids == [] and got.attrs == {}
        assert got.index.size == 0
        assert not got.ids.any()


@pytest.mark.parametrize("seed", range(8))
def test_random_scenes_match_frame_labelling(seed):
    bundle = build_bundle(random_scene(seed, max_candidates=40))
    tissue = _tissue(bundle)
    got = detect_mitosis(bundle.mitosis_candidates, bundle.he, tissue)
    want = frame_detect_mitosis(bundle.mitosis_candidates, bundle.he, tissue)
    _assert_equivalent(got, want, bundle.nuclei)


def test_throughput_bundle_matches_frame_labelling():
    bundle = throughput_bundle(1024, seed=3)
    tissue = _tissue(bundle, RunConfig(background_threshold=200))
    got = detect_mitosis(bundle.mitosis_candidates, bundle.he, tissue)
    want = frame_detect_mitosis(bundle.mitosis_candidates, bundle.he, tissue)
    assert len(want.instance_ids) > 10
    _assert_equivalent(got, want, bundle.nuclei)


@pytest.mark.parametrize("workers", [1, 2])
def test_rois_across_band_borders_read_through_a_reader(tmp_path, monkeypatch, workers):
    """Candidates on the rows either side of each band border, on the four
    corners and in the halo: the ROI sums the bands fill are the whole
    tile's, and the result is the reference's."""
    cfg = RunConfig(crop_px=40, stride_px=30)  # bands of rows [0, 30), [30, 60), [60, 100)
    # a scene whose epithelium keeps hulls near most of the pinned candidates
    base = build_bundle(random_scene(35, 100, 100, max_nuclei=80, max_candidates=6))
    h, w = base.shape
    borders = [(x, 30.0 * k + d) for k in (1, 2) for d in (-1, 0, 1) for x in (12.0, 47.5, 80.0)]
    corners = [(0.0, 0.0), (w - 1.0, 0.0), (0.0, h - 1.0), (w - 1.0, h - 1.0)]
    halo = [(-3.0, 45.0), (50.0, h + 2.0), (w + 3.5, 29.5), (-2.5, -2.5)]
    candidates = [(x, y, 0.9) for x, y in borders + corners + halo] + list(base.mitosis_candidates)
    bundle = dataclasses.replace(base, mitosis_candidates=candidates, halo=4)
    manifest = save_bundle(bundle, tmp_path)
    seen, detect = [], tmeseg.aggregate.detect_mitosis

    def recording(candidates, pixels, tissue):
        seen.append(pixels.copy())
        return detect(candidates, pixels, tissue)

    monkeypatch.setattr(tmeseg.aggregate, "detect_mitosis", recording)
    with BundleReader(manifest) as reader:
        result = aggregate(reader, cfg, workers=workers)
    (sums,) = seen
    assert np.array_equal(sums, roi_sums(bundle.mitosis_candidates, bundle.he))
    truth = reference_aggregate(bundle, cfg)
    assert result.semantic.tobytes() == truth["semantic"].tobytes()
    assert result.classes == truth["classes"]
    want = frame_detect_mitosis(bundle.mitosis_candidates, bundle.he, _tissue(bundle, cfg))
    assert len(want.instance_ids) >= 5  # overlapping hulls merge into one region
    _assert_equivalent(result.mitosis, want, bundle.nuclei)


@pytest.mark.parametrize("shape", [(1, 90), (90, 1), (1, 1), (2, 3), (47, 61), (90, 90)])
def test_noise_frames_match_frame_labelling(shape):
    """Two batches of candidates on noise, plain and quantised to four gray
    levels per channel (Otsu ties), with a dark band of carbon dust;
    candidates on and off pixel centres, repeated, in the halo and far off
    the frame."""
    h, w = shape
    rng = np.random.default_rng(h * 100 + w)
    he = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    he[: h // 3] //= 16
    tissue = np.where(rng.random(shape) < 0.6, EPITHELIAL_TISSUE, STROMA).astype(np.uint8)
    nuclei = InstanceMap.from_ids((rng.random(shape) < 0.2) * rng.integers(1, 9, size=shape))
    n = tmeseg.aggregate._BATCH + 9
    xs, ys = rng.uniform(-40, w + 40, size=n), rng.uniform(-40, h + 40, size=n)
    xs[::2], ys[::2] = np.round(xs[::2]), np.round(ys[::2])
    candidates = [(float(x), float(y), 0.9) for x, y in zip(xs, ys)]
    candidates += candidates[::5] + [(-100.0, -100.0, 0.9), (w + 100.0, h / 2, 0.9)]
    for image in (he, he // 64 * 64):
        got = _check(candidates, image, tissue, nuclei)
        assert got.attrs or h * w < 100


# ---------------------------------------------------------------------------
# label_pieces against the whole-frame labelling of the union
# ---------------------------------------------------------------------------


def _random_runs(rng, h, w, n):
    """Short random row runs, some clipped by the frame edges, overlapping freely."""
    row, start = rng.integers(0, h, size=n), rng.integers(0, w, size=n)
    return row, start, np.minimum(start + rng.integers(1, 6, size=n), w)


def _runs_of(triples):
    """``(row, start, stop)`` arrays from a list of ``(row, start, stop)``."""
    return tuple(np.array(v, dtype=np.intp).reshape(-1) for v in zip(*triples))


def _union(runs, shape):
    union = np.zeros(shape, dtype=bool)
    for y, a, b in zip(*runs):
        union[y, a:b] = True
    return union


def _assert_labels_union(runs, shape):
    got = label_pieces(shape, *runs)
    union = _union(runs, shape)
    for want in (
        ndimage_components(union),
        InstanceMap.from_ids(union_find_components(union, 8)),
    ):
        assert got.ids.tobytes() == want.ids.tobytes()
        _same_attrs(got.attrs, want.attrs)
        for name in ("index", "slot", "gids"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_label_pieces_equals_whole_frame_components():
    rng = np.random.default_rng(11)
    for _ in range(40):
        shape = tuple(int(v) for v in rng.integers(6, 30, size=2))
        _assert_labels_union(_random_runs(rng, *shape, int(rng.integers(0, 60))), shape)


def test_label_pieces_merges_overlapping_and_abutting_runs():
    cases = [
        [(2, 1, 5), (2, 3, 7)],  # overlap on a row: one run [1, 7)
        [(2, 1, 5), (2, 5, 9)],  # abut on a row: one run [1, 9)
        [(2, 1, 5), (2, 6, 10)],  # one column apart: two runs, two regions
        [(2, 3, 7), (2, 1, 5), (2, 1, 5)],  # out of order and repeated
        [(1, 2, 5), (2, 2, 5), (3, 2, 5), (2, 3, 7), (0, 0, 1), (1, 1, 2)],
        [(0, 0, 4), (1, 4, 8), (2, 9, 13)],  # corner to corner, then a gap
    ]
    for runs in cases:
        _assert_labels_union(_runs_of(runs), (4, 14))
    assert len(label_pieces((4, 14), *_runs_of(cases[1])).attrs) == 1
    assert len(label_pieces((4, 14), *_runs_of(cases[2])).attrs) == 2
    assert len(label_pieces((4, 14), *_runs_of(cases[5])).attrs) == 2


# ---------------------------------------------------------------------------
# Memory and invariants
# ---------------------------------------------------------------------------


def _blob_field(size):
    """A size x size frame with the same dark blobs and candidates in its
    top-left 200 x 200 corner, and a nucleus under every blob."""
    centres = [(y, x) for y in range(20, 200, 30) for x in range(20, 200, 30)]
    blobs = [list(zip(*Disc(y, x, 2.5).pixels(size, size))) for y, x in centres]
    he, tissue, nuclei = _scene(size, size, blobs)
    return [(float(x), float(y), 0.9) for y, x in centres], he, tissue, nuclei


def test_mitosis_working_memory_does_not_grow_with_frame_area():
    small, large = _blob_field(256), _blob_field(1024)  # 16x the area
    detect_mitosis(*small[:3])  # scipy's import is not the stage's

    def stages(candidates, he, tissue, nuclei):
        mitosis = detect_mitosis(candidates, he, tissue)
        assert len(mitosis.instance_ids) == 36
        return apply_mitosis(nuclei, mitosis)

    peaks = [_traced_peak(lambda: stages(*field)) for field in (small, large)]
    # a frame-sized bool union alone would be 1 MB on the large frame
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_mitosis_working_memory_is_bounded_by_one_batch():
    candidates, he, tissue, _ = _blob_field(256)
    detect_mitosis(candidates, he, tissue)  # one-time allocations are not the stage's

    def stage(cands):
        assert len(detect_mitosis(cands, he, tissue).instance_ids) == 36

    once, repeated = (_traced_peak(lambda: stage(c)) for c in (candidates, candidates * 8))
    # the batches differ a little in their blobs; 8x the candidates in one
    # batch would hold 8x the ROI arrays, tens of MB
    assert repeated <= once + 128 * 1024, (once, repeated)


def test_check_invariants_catches_nucleus_under_a_region_without_mitotic_class():
    res = aggregate(build_bundle(random_scene(0)))
    assert isinstance(res.mitosis, InstanceMap)
    res.check_invariants()
    gid = next(g for g, c in res.classes.items() if c != MITOTIC_CELL)
    r, c = np.argwhere(res.instances.ids == gid)[0]
    slot, gids = res.mitosis.slot, res.mitosis.gids
    flat = r * res.mitosis.shape[1] + c
    at = np.searchsorted(res.mitosis.index, flat)
    res.mitosis = InstanceMap.from_pixels(
        res.mitosis.shape,
        np.insert(res.mitosis.index, at, flat),
        np.insert(gids[slot], at, gids.size + 1),  # one more region, one pixel
    )
    assert len(res.mitosis.attrs) == gids.size + 1
    with pytest.raises(AssertionError, match=f"nucleus {gid}: mitosis supersedence"):
        res.check_invariants()


def test_every_result_is_checked_for_supersedence(monkeypatch):
    bundle = build_bundle(random_scene(5))
    assert MITOTIC_CELL in aggregate(bundle).classes.values()  # regions cover nuclei
    # a supersedence stage that hits nothing: the result fails its own check
    monkeypatch.setattr(
        tmeseg.aggregate, "apply_mitosis", lambda nuclei, mitosis: np.zeros(len(nuclei.attrs), bool)
    )
    with pytest.raises(AssertionError, match="mitosis supersedence"):
        aggregate(bundle)
