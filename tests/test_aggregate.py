import dataclasses

import numpy as np
import pytest

from tmeseg.aggregate import (
    CELL_CHANNELS,
    TISSUE_CHANNELS,
    UNDEFINED,
    TeacherBundle,
    aggregate,
    apply_mitosis,
    detect_mitosis,
    fallback_rules,
)
from tmeseg.config import RunConfig
from tmeseg.raster import InstanceAttrs, InstanceMap, LogitStack, connected_components
from tmeseg import reference
from tmeseg.reference import reference_aggregate
from tmeseg.synth import (
    GLASS,
    TISSUE_INK,
    CandidateSpec,
    Disc,
    Ellipse,
    NucleusSpec,
    SceneSpec,
    TissuePatch,
    build_bundle,
    random_scene,
)
from tmeseg.taxonomy import default_taxonomy

TAX = default_taxonomy()
BG = TAX.resolve("background")
STR = TAX.resolve("stroma")
SM = TAX.resolve("smooth_muscle")
EPI = TAX.resolve("epithelial_tissue")
LEU = TAX.resolve("leukocyte")
ENDO = TAX.resolve("endothelial_cell")
RBC = TAX.resolve("red_blood_cell")
LYM = TAX.resolve("lymphocyte")
PLS = TAX.resolve("plasma_cell")
FIB = TAX.resolve("fibroblast")
MIT = TAX.resolve("mitotic_cell")


def _stack(names, h, w, fill=-2.0):
    ids = tuple(TAX.resolve(n) for n in names)
    return LogitStack(ids, np.full((len(names), h, w), fill, dtype=np.float32))


def _set(stack: LogitStack, name: str, value) -> None:
    stack.planes[stack.class_ids.index(TAX.resolve(name))] = value


def make_bundle(h=8, w=8, ink=TISSUE_INK, ids=None, types=None, candidates=()):
    """All-ink tile (uniform gray: per-tile Otsu labels nothing as glass)."""
    he = np.full((h, w, 3), ink, dtype=np.uint8)
    imap = InstanceMap.from_ids(
        ids if ids is not None else np.zeros((h, w), np.int32), types or {}
    )
    return TeacherBundle(
        he=he,
        tissue_logits=_stack(TISSUE_CHANNELS, h, w),
        cell_logits=_stack(CELL_CHANNELS, h, w),
        nuclei=imap,
        mitosis_candidates=candidates,
    )


# ---------------------------------------------------------------------------
# Background and tissue contest: ``aggregate`` on nucleus-free bundles, whose
# semantic raster is the tissue raster
# ---------------------------------------------------------------------------


def _tissue(bundle, config=None):
    return aggregate(bundle, config).semantic


def test_background_threshold_override():
    b = make_bundle(6, 6, ink=GLASS)
    assert (_tissue(b, RunConfig(background_threshold=200)) == BG).all()
    assert not (_tissue(b, RunConfig(background_threshold=250)) == BG).any()


def test_background_otsu_separates_glass_from_ink():
    b = make_bundle(10, 10, ink=GLASS)
    b.he[:, :5] = TISSUE_INK
    bg = _tissue(b) == BG
    # smoothing blends the boundary; the outer columns are unambiguous
    assert bg[:, 9].all() and not bg[:, 0].any()


@pytest.mark.parametrize("values", [[], np.zeros(0, np.uint8)], ids=["list", "array"])
def test_reference_otsu_refuses_no_pixels(values):
    with pytest.raises(ValueError, match="no pixels"):
        reference._otsu(values)


def test_tissue_all_negative_is_stroma():
    b = make_bundle()
    assert (_tissue(b) == STR).all()


def test_tissue_contest_larger_logit_wins():
    b = make_bundle()
    _set(b.tissue_logits, "smooth_muscle", 2.0)
    _set(b.tissue_logits, "epithelial_tissue", 1.0)
    assert (_tissue(b) == SM).all()
    _set(b.tissue_logits, "epithelial_tissue", 3.0)
    assert (_tissue(b) == EPI).all()


def test_tissue_contest_tie_goes_to_smooth_muscle():
    b = make_bundle()
    _set(b.tissue_logits, "smooth_muscle", 1.5)
    _set(b.tissue_logits, "epithelial_tissue", 1.5)
    assert (_tissue(b) == SM).all()


def test_tissue_one_sided_contest():
    # epithelium positive, smooth muscle negative: epithelium carries the
    # contest even though the *larger* channel comparison is one-sided
    b = make_bundle()
    _set(b.tissue_logits, "epithelial_tissue", 0.5)
    assert (_tissue(b) == EPI).all()


def test_rbc_overlays_tissue_winner():
    b = make_bundle()
    _set(b.tissue_logits, "smooth_muscle", 2.0)
    _set(b.tissue_logits, "red_blood_cell", 0.1)
    assert (_tissue(b) == RBC).all()


def test_background_trumps_positive_logits():
    b = make_bundle(ink=GLASS)
    _set(b.tissue_logits, "epithelial_tissue", 5.0)
    labels = _tissue(b, RunConfig(background_threshold=200))
    assert (labels == BG).all()


# ---------------------------------------------------------------------------
# Per-nucleus voting: ``aggregate`` on a one-nucleus bundle
# ---------------------------------------------------------------------------


def _vote(stack: LogitStack, n_pixels: int):
    """Class and decision record of one nucleus on the first ``n_pixels``
    pixels of row 0 of a bundle carrying the cell logits ``stack``."""
    ids = np.zeros((stack.height, stack.width), np.int32)
    ids[0, :n_pixels] = 1
    b = make_bundle(stack.height, stack.width, ids=ids)
    b.cell_logits = stack
    res = aggregate(b)
    return res.classes[1], res.provenance[1]


def _one_pixel_logits(**name_to_logit):
    stack = _stack(CELL_CHANNELS, 1, 1)
    for name, v in name_to_logit.items():
        _set(stack, name, v)
    return stack


def test_deeper_level_overrides_shallower():
    stack = _one_pixel_logits(leukocyte=1.0, lymphocyte=2.0)
    cls, dec = _vote(stack, 1)
    assert cls == LYM
    assert dec.rule == "vote"
    assert dec.level_fired == (0, 1, 1, 0)


def test_weaker_deep_positive_still_overrides():
    # the walk replaces the running label whenever the deeper winner is
    # positive, even at a smaller magnitude
    stack = _one_pixel_logits(leukocyte=5.0, lymphocyte=0.1)
    cls, _ = _vote(stack, 1)
    assert cls == LYM


def test_all_nonpositive_is_undefined():
    stack = _stack(CELL_CHANNELS, 1, 1)
    cls, dec = _vote(stack, 1)
    assert cls is None
    assert dec.rule == "undefined"
    assert dec.votes == {-1: 1}


def test_majority_vote_three_to_two():
    stack = _stack(CELL_CHANNELS, 1, 5)
    plane = np.full((1, 5), -2.0, dtype=np.float32)
    plane[0, :3] = 1.0
    _set(stack, "lymphocyte", plane)
    plane2 = np.full((1, 5), -2.0, dtype=np.float32)
    plane2[0, 3:] = 1.0
    _set(stack, "plasma_cell", plane2)
    cls, dec = _vote(stack, 5)
    assert cls == LYM
    assert dec.votes == {LYM: 3, PLS: 2}


def test_undefined_needs_strict_plurality():
    stack = _stack(CELL_CHANNELS, 1, 5)
    plane = np.full((1, 5), -2.0, dtype=np.float32)
    plane[0, :2] = 1.0  # two endothelial pixels, the rest undefined
    _set(stack, "endothelial_cell", plane)
    cls, _ = _vote(stack, 4)
    assert cls == ENDO  # 2 endothelial vs 2 undefined: the defined class wins
    cls, _ = _vote(stack, 5)
    # 2 endothelial vs 3 undefined -> strict plurality for undefined
    assert cls is None


def test_defined_tie_takes_lowest_class_id():
    stack = _stack(CELL_CHANNELS, 1, 2)
    a = np.full((1, 2), -2.0, dtype=np.float32)
    a[0, 0] = 1.0
    _set(stack, "lymphocyte", a)
    b = np.full((1, 2), -2.0, dtype=np.float32)
    b[0, 1] = 1.0
    _set(stack, "endothelial_cell", b)
    cls, _ = _vote(stack, 2)
    assert cls == ENDO  # 5 < 7


def test_empty_pixel_set_rejected():
    # a nucleus record whose pixels are gone is rejected, not voted undefined
    b = make_bundle(2, 2)
    b.nuclei.attrs[1] = InstanceAttrs(pixel_count=0, centroid=(0.0, 0.0))
    with pytest.raises(ValueError, match="without raster pixels"):
        aggregate(b)


# ---------------------------------------------------------------------------
# Fallback rules
# ---------------------------------------------------------------------------


def _nucleus_on_tissue(n_on, n_off, tissue_class, teacher=None):
    """10-pixel nucleus with n_on pixels on `tissue_class`, rest stroma."""
    h, w = 4, 10
    ids = np.zeros((h, w), np.int32)
    ids[0, : n_on + n_off] = 1
    tissue = np.full((h, w), STR, dtype=np.uint8)
    tissue[0, :n_on] = tissue_class
    types = {1: teacher} if teacher is not None else {}
    return InstanceMap.from_ids(ids, types), tissue


def _fallback(nuclei, tissue, voted=UNDEFINED):
    """The fallback rule that fires for the one nucleus of ``nuclei``,
    voted ``voted``, or None: the masks are disjoint, at most one is set."""
    epithelial, fibroblast = fallback_rules(nuclei, np.array([voted], np.int16), tissue)
    assert epithelial.shape == fibroblast.shape == (1,)
    assert not (epithelial & fibroblast).any()
    if epithelial[0]:
        return "fallback_epithelial"
    return "fallback_fibroblast" if fibroblast[0] else None


def test_fallback_epithelial_majority():
    nuclei, tissue = _nucleus_on_tissue(6, 4, EPI)
    assert _fallback(nuclei, tissue) == "fallback_epithelial"


def test_fallback_exactly_half_is_not_enough():
    nuclei, tissue = _nucleus_on_tissue(5, 5, EPI)
    # 5 of 10 on epithelium and 5 on stroma: neither rule fires (the
    # stroma arm also needs the fibroblast teacher type)
    assert _fallback(nuclei, tissue) is None


def test_fallback_fibroblast_needs_teacher_type():
    nuclei, tissue = _nucleus_on_tissue(0, 10, EPI, teacher=FIB)
    assert _fallback(nuclei, tissue) == "fallback_fibroblast"
    nuclei2, tissue2 = _nucleus_on_tissue(0, 10, EPI)  # no teacher type
    assert _fallback(nuclei2, tissue2) is None


def test_fallback_epithelial_beats_fibroblast_arm():
    nuclei, tissue = _nucleus_on_tissue(6, 4, EPI, teacher=FIB)
    assert _fallback(nuclei, tissue) == "fallback_epithelial"


def test_fallback_leaves_defined_classes_alone():
    nuclei, tissue = _nucleus_on_tissue(10, 0, EPI, teacher=FIB)
    assert _fallback(nuclei, tissue, voted=LYM) is None


# ---------------------------------------------------------------------------
# Mitosis detection
# ---------------------------------------------------------------------------


def _mitosis_tile(h=80, w=80, tissue_class=EPI):
    he = np.full((h, w, 3), TISSUE_INK, dtype=np.uint8)
    tissue = np.full((h, w), tissue_class, dtype=np.uint8)
    return he, tissue


def test_mitosis_blob_detected_over_epithelium():
    he, tissue = _mitosis_tile()
    ys, xs = Disc(40, 40, 2.5).pixels(80, 80)
    he[ys, xs] = 20
    mit = detect_mitosis([(40.0, 40.0, 0.9)], he, tissue)
    assert len(mit.instance_ids) == 1
    got = mit.ids > 0
    assert got[ys, xs].all()


def test_mitosis_rejected_over_stroma():
    he, tissue = _mitosis_tile(tissue_class=STR)
    ys, xs = Disc(40, 40, 2.5).pixels(80, 80)
    he[ys, xs] = 20
    mit = detect_mitosis([(40.0, 40.0, 0.9)], he, tissue)
    assert len(mit.instance_ids) == 0


def test_mitosis_carbon_dust_discarded():
    he, tissue = _mitosis_tile()
    ys, xs = Disc(40, 40, 31.0).pixels(80, 80)
    he[ys, xs] = 10  # RGB sum 30 <= 40 across the whole ROI
    mit = detect_mitosis([(40.0, 40.0, 0.9)], he, tissue)
    assert len(mit.instance_ids) == 0


def test_mitosis_minimum_area_boundary():
    he, tissue = _mitosis_tile()
    he[40, 40:42] = 20  # two dark pixels: below the floor of 3
    assert len(detect_mitosis([(40.0, 40.0, 0.9)], he, tissue).instance_ids) == 0
    he[40, 42] = 20  # third pixel crosses the floor
    assert len(detect_mitosis([(40.0, 40.0, 0.9)], he, tissue).instance_ids) == 1


def test_mitosis_roi_clipped_at_border():
    he, tissue = _mitosis_tile()
    ys, xs = Disc(1, 1, 2.0).pixels(80, 80)
    he[ys, xs] = 20
    mit = detect_mitosis([(0.0, 0.0, 0.9)], he, tissue)
    assert len(mit.instance_ids) == 1
    mit2 = detect_mitosis([(-100.0, -100.0, 0.9)], he, tissue)
    assert len(mit2.instance_ids) == 0  # ROI entirely outside: skipped


def test_mitosis_hull_fills_concavity():
    he, tissue = _mitosis_tile()
    # an L of dark pixels: the hull closes the inner corner
    he[40, 40:44] = 20
    he[41:44, 40] = 20
    mit = detect_mitosis([(41.0, 41.0, 0.9)], he, tissue)
    region = mit.ids > 0
    assert region[41, 41] and region[41, 42]


def test_apply_mitosis_overrides_everything_it_touches():
    ids = np.zeros((6, 6), np.int32)
    ids[1, 1] = 1
    ids[4, 4] = 2
    nuclei = InstanceMap.from_ids(ids, {})
    mask = np.zeros((6, 6), bool)
    mask[1, 1] = True  # overlaps nucleus 1 only
    mitosis = connected_components(mask)
    # a mask over nuclei 1 and 2, whatever their classes: nucleus 1 becomes mitotic
    assert apply_mitosis(nuclei, mitosis).tolist() == [True, False]


def test_apply_mitosis_near_miss_changes_nothing():
    ids = np.zeros((6, 6), np.int32)
    ids[1, 1] = 1
    nuclei = InstanceMap.from_ids(ids, {})
    mask = np.zeros((6, 6), bool)
    mask[1, 2] = True  # one pixel away
    assert apply_mitosis(nuclei, connected_components(mask)).tolist() == [False]


# ---------------------------------------------------------------------------
# Bundle validation
# ---------------------------------------------------------------------------


def test_bundle_rejects_missing_channel():
    b = make_bundle()
    short = LogitStack(
        b.cell_logits.class_ids[:-1], b.cell_logits.planes[:-1]
    )
    broken = dataclasses.replace(b, cell_logits=short)
    with pytest.raises(ValueError, match="epithelial_tissue"):
        broken.validate()


def test_bundle_rejects_nonfinite_logits():
    b = make_bundle()
    b.tissue_logits.planes[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        b.validate()


def test_bundle_rejects_candidate_outside_halo():
    b = make_bundle(candidates=((-5.0, 2.0, 0.9),))
    with pytest.raises(ValueError, match="outside"):
        b.validate()
    ok = make_bundle(candidates=((-5.0, 2.0, 0.9),))
    ok.halo = 8
    ok.validate()


def test_bundle_rejects_bad_score():
    b = make_bundle(candidates=((2.0, 2.0, 1.5),))
    with pytest.raises(ValueError, match="score"):
        b.validate()


@pytest.mark.parametrize(
    "scale, message",
    [
        ({"halo": -3}, "halo must be an integer >= 0"),
        ({"halo": 2.7}, "halo must be an integer >= 0"),
        ({"mpp": -1}, "mpp must be a finite number > 0"),
        ({"mpp": 0}, "mpp must be a finite number > 0"),
        ({"mpp": float("nan")}, "mpp must be a finite number > 0"),
    ],
    ids=["halo-negative", "halo-float", "mpp-negative", "mpp-zero", "mpp-nan"],
)
def test_bundle_rejects_a_scale_a_container_header_refuses(scale, message):
    # the same rule as for TMEF1 headers and manifests, so save_bundle never
    # meets a bundle that validate and aggregate accepted
    b = dataclasses.replace(make_bundle(candidates=((4.0, 4.0, 0.9),)), **scale)
    with pytest.raises(ValueError, match=message):
        b.validate()
    with pytest.raises(ValueError, match=message):
        aggregate(b)


def test_bundle_without_a_halo_has_halo_0():
    # as in a bundle manifest, where a missing or null halo means 0
    inside = dataclasses.replace(make_bundle(candidates=((4.0, 4.0, 0.9),)), halo=None)
    inside.validate()
    outside = dataclasses.replace(make_bundle(candidates=((-1.0, 4.0, 0.9),)), halo=None)
    with pytest.raises(ValueError, match="outside tile plus halo 0"):
        outside.validate()


# ---------------------------------------------------------------------------
# Whole-pipeline behaviour
# ---------------------------------------------------------------------------


def test_scene_with_single_lymphocyte():
    scene = SceneSpec(
        height=64,
        width=64,
        tissue=(TissuePatch(Ellipse(32, 32, 24, 26)),),
        nuclei=(NucleusSpec(Disc(32, 32, 4), class_name="lymphocyte"),),
    )
    bundle = build_bundle(scene)
    res = aggregate(bundle)
    assert res.classes == {1: LYM}
    assert res.provenance[1].rule == "vote"
    nucleus = bundle.nuclei.ids == 1
    assert (res.semantic[nucleus] == LYM).all()
    assert res.semantic[0, 0] == BG  # glass corner
    ring = (~nucleus) & (res.semantic != BG)
    assert (res.semantic[ring] == STR).all()  # unclassed ink reads as stroma


def test_nucleus_class_paints_over_tissue():
    scene = SceneSpec(
        height=64,
        width=64,
        tissue=(
            TissuePatch(Ellipse(32, 32, 24, 26), class_name="epithelial_tissue"),
        ),
        nuclei=(NucleusSpec(Disc(32, 32, 4), class_name="neutrophil"),),
    )
    res = aggregate(build_bundle(scene))
    nucleus = res.instances.ids == 1
    assert (res.semantic[nucleus] == TAX.resolve("neutrophil")).all()
    assert not (res.semantic == EPI)[nucleus].any()


def test_candidate_order_does_not_matter():
    scene = random_scene(404, max_candidates=5)
    bundle = build_bundle(scene)
    flipped = dataclasses.replace(
        bundle, mitosis_candidates=tuple(reversed(bundle.mitosis_candidates))
    )
    a = aggregate(bundle)
    b = aggregate(flipped)
    assert np.array_equal(a.semantic, b.semantic)
    assert np.array_equal(a.mitosis.ids > 0, b.mitosis.ids > 0)
    assert a.classes == b.classes


def test_aggregate_is_deterministic():
    bundle = build_bundle(random_scene(77))
    a = aggregate(bundle)
    b = aggregate(bundle)
    assert np.array_equal(a.semantic, b.semantic)
    assert a.classes == b.classes
    assert np.array_equal(a.mitosis.ids, b.mitosis.ids)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_invariants_hold_on_random_scenes(seed):
    bundle = build_bundle(random_scene(seed))
    ref = reference_aggregate(bundle)
    res = aggregate(bundle)
    res.check_invariants()
    assert np.array_equal(res.semantic, ref["semantic"])
    assert res.classes == ref["classes"]
    assert np.array_equal(res.mitosis.ids > 0, ref["mitosis_mask"])


def test_check_invariants_catches_mislabelled_nucleus_pixel():
    res = aggregate(build_bundle(random_scene(0)))
    gid = next(g for g, c in res.classes.items() if c is not None)
    r, c = np.argwhere(res.instances.ids == gid)[-1]
    res.semantic[r, c] = BG
    with pytest.raises(AssertionError, match=f"nucleus {gid}: semantic/instance"):
        res.check_invariants()


@pytest.mark.parametrize("ghost", [2, 10**6])
def test_aggregate_rejects_records_without_pixels(ghost):
    ids = np.zeros((8, 8), np.int32)
    ids[2:4, 2:4] = 1
    bundle = make_bundle(ids=ids)
    bundle.nuclei.attrs[ghost] = InstanceAttrs(pixel_count=0, centroid=(0.0, 0.0))
    with pytest.raises(ValueError, match="without raster pixels"):
        aggregate(bundle)


def test_mitotic_label_confined_to_nuclei():
    for seed in (11, 12, 13):
        res = aggregate(build_bundle(random_scene(seed)))
        stray = (res.semantic == MIT) & (res.instances.ids == 0)
        assert not stray.any()


def test_aggregate_reference_parity_on_handmade_scene():
    scene = SceneSpec(
        height=96,
        width=96,
        tissue=(
            TissuePatch(Ellipse(48, 40, 30, 28), class_name="epithelial_tissue"),
            TissuePatch(Disc(70, 70, 18), class_name="smooth_muscle", logit=1.5),
        ),
        nuclei=(
            NucleusSpec(Disc(48, 40, 4), class_name="lymphocyte"),
            NucleusSpec(Disc(70, 70, 3), teacher_type="connective"),
            NucleusSpec(Disc(30, 30, 3)),
        ),
        candidates=(CandidateSpec(40.0, 48.0, draw="blob", radius=2.5),),
        noise_seed=9,
    )
    bundle = build_bundle(scene)
    ref = reference_aggregate(bundle)
    res = aggregate(bundle)
    assert np.array_equal(res.semantic, ref["semantic"])
    assert res.classes == ref["classes"]
    assert np.array_equal(res.mitosis.ids > 0, ref["mitosis_mask"])
