"""Mitosis hull regions labelled without a frame, against the whole-frame
labelling of ``oracles.frame_detect_mitosis``."""

import dataclasses

import numpy as np
import pytest
from oracles import frame_detect_mitosis, frame_mitosis_hits
from scipy import ndimage
from test_stream import _traced_peak

from tmeseg.aggregate import (
    aggregate,
    apply_mitosis,
    detect_mitosis,
    mitosis_hulls,
)
from tmeseg.config import RunConfig
from tmeseg.raster import InstanceMap, RegionList, connected_components, label_pieces
from tmeseg.synth import TISSUE_INK, Disc, build_bundle, random_scene, throughput_bundle
from tmeseg.taxonomy import EPITHELIAL_TISSUE, MITOTIC_CELL, STROMA

SMALL_ROI = RunConfig(mitosis_roi_radius_px=5)


def _same_attrs(got, want):
    assert list(got) == list(want)
    for gid, a in want.items():
        b = got[gid]
        assert (b.pixel_count, b.teacher_type) == (a.pixel_count, a.teacher_type)
        assert np.array(b.centroid).tobytes() == np.array(a.centroid).tobytes()


def _assert_equivalent(got, want: InstanceMap, nuclei: InstanceMap):
    """Same ids, attrs, pixel groups and supersedence hits as the frame labelling."""
    assert isinstance(got, RegionList)
    assert got.ids.tobytes() == want.ids.tobytes()
    _same_attrs(got.attrs, want.attrs)
    assert len(got.instance_ids) == len(want.instance_ids)
    for a, b in zip(got.pixel_groups(), want.pixel_groups()):
        assert np.array_equal(a, b)
    classes = {g: None for g in nuclei.instance_ids}
    _, hits = apply_mitosis(classes, nuclei, got)
    assert hits == frame_mitosis_hits(nuclei, want)


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


def _check(candidates, he, tissue, nuclei, config=SMALL_ROI):
    got = detect_mitosis(candidates, he, tissue, config)
    want = frame_detect_mitosis(candidates, he, tissue, config)
    _assert_equivalent(got, want, nuclei)
    return got


def _piece_boxes(candidates, he, config=SMALL_ROI):
    boxes = []
    for y0, x0, region in mitosis_hulls(candidates, he, config):
        rows, cols = np.nonzero(region)
        boxes.append((rows.min() + y0, cols.min() + x0, rows.max() + y0, cols.max() + x0))
    return boxes


# ---------------------------------------------------------------------------
# detect_mitosis against the frame-based oracle
# ---------------------------------------------------------------------------


def test_hulls_touching_only_diagonally_across_boxes_are_one_region():
    he, tissue, nuclei = _scene(30, 30, [_square(10, 10, 3), _square(13, 13, 3)])
    candidates = [(8.5, 8.5, 0.9), (16.5, 16.5, 0.9)]
    # two pieces whose boxes are disjoint; only the grown boxes meet
    assert _piece_boxes(candidates, he) == [(10, 10, 12, 12), (13, 13, 15, 15)]
    got = _check(candidates, he, tissue, nuclei)
    assert len(got.instance_ids) == 1


def test_boxes_touching_without_touching_pixels_are_two_regions():
    anti_diagonal = [(10, 12), (11, 11), (12, 10)]
    corner = [(13, 13), (13, 14), (14, 13)]
    he, tissue, nuclei = _scene(30, 30, [anti_diagonal, corner])
    candidates = [(9.0, 9.0, 0.9), (16.0, 16.0, 0.9)]
    assert _piece_boxes(candidates, he) == [(10, 10, 12, 12), (13, 13, 14, 14)]
    got = _check(candidates, he, tissue, nuclei)
    assert len(got.instance_ids) == 2


def test_overlapping_hulls_of_two_candidates_are_one_region():
    bar = [(r, c) for r in range(20, 23) for c in range(10, 31)]
    he, tissue, nuclei = _scene(40, 50, [bar])
    wide = RunConfig(mitosis_roi_radius_px=8)
    for candidates in (
        [(14.0, 21.0, 0.9), (26.0, 21.0, 0.9)],  # each ROI sees part of the bar
        [(20.0, 21.0, 0.9), (20.0, 21.0, 0.9)],  # the same hull twice
    ):
        assert len(_piece_boxes(candidates, he, wide)) == 2
        got = _check(candidates, he, tissue, nuclei, wide)
        assert len(got.instance_ids) == 1


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


def test_no_kept_hull():
    he, tissue, nuclei = _scene(30, 30, [_square(10, 10, 3)])
    for candidates, tis in (([], tissue), ([(11.0, 11.0, 0.9)], np.full_like(tissue, STROMA))):
        got = _check(candidates, he, tis, nuclei)
        assert got.instance_ids == [] and got.attrs == {}
        assert got.pixel_groups()[0].size == 0
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


# ---------------------------------------------------------------------------
# label_pieces against connected_components of the union
# ---------------------------------------------------------------------------


def _random_pieces(rng, h, w, n):
    """Small random masks, some clipped by the frame edges, overlapping freely."""
    pieces = []
    for _ in range(n):
        ph, pw = rng.integers(1, 6, size=2)
        y0, x0 = rng.integers(0, h - ph + 1), rng.integers(0, w - pw + 1)
        pieces.append((int(y0), int(x0), rng.random((ph, pw)) < 0.6))
    return pieces


def _union(pieces, shape):
    union = np.zeros(shape, dtype=bool)
    for y0, x0, mask in pieces:
        union[y0 : y0 + mask.shape[0], x0 : x0 + mask.shape[1]] |= mask
    return union


def test_label_pieces_equals_whole_frame_components():
    rng = np.random.default_rng(11)
    for _ in range(40):
        shape = tuple(int(v) for v in rng.integers(6, 30, size=2))
        pieces = _random_pieces(rng, *shape, int(rng.integers(0, 25)))
        got = label_pieces(pieces, shape)
        want = connected_components(_union(pieces, shape))
        assert got.ids.tobytes() == want.ids.tobytes()
        _same_attrs(got.attrs, want.attrs)


def test_label_pieces_ignores_the_label_order_of_ndimage(monkeypatch):
    label = ndimage.label
    rng = np.random.default_rng(12)

    def permuted_label(mask, structure=None):
        labeled, n = label(mask, structure=structure)
        lut = np.concatenate([[0], rng.permutation(n) + 1]).astype(labeled.dtype)
        return lut[labeled], n

    monkeypatch.setattr(ndimage, "label", permuted_label)
    for _ in range(10):
        pieces = _random_pieces(rng, 20, 24, 20)
        got = label_pieces(pieces, (20, 24))
        want = connected_components(_union(pieces, (20, 24)))
        assert got.ids.tobytes() == want.ids.tobytes()


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
        return apply_mitosis({}, nuclei, mitosis)

    peaks = [_traced_peak(lambda: stages(*field)) for field in (small, large)]
    # a frame-sized bool union alone would be 1 MB on the large frame
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_check_invariants_catches_nucleus_under_a_region_without_mitotic_class():
    res = aggregate(build_bundle(random_scene(0)))
    assert isinstance(res.mitosis, RegionList)
    res.check_invariants()
    gid = next(g for g, c in res.classes.items() if c != MITOTIC_CELL)
    r, c = np.argwhere(res.instances.ids == gid)[0]
    res.mitosis = RegionList(
        res.mitosis.shape, res.mitosis.pixels + [(np.array([r]), np.array([c]))]
    )
    with pytest.raises(AssertionError, match=f"nucleus {gid}: mitosis supersedence"):
        res.check_invariants()
