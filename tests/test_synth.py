import hashlib

import numpy as np
import pytest

from tmeseg.reference import reference_aggregate
from tmeseg.synth import (
    GLASS,
    NUCLEUS_INK,
    TISSUE_INK,
    CandidateSpec,
    Disc,
    Ellipse,
    NucleusSpec,
    SceneSpec,
    TissuePatch,
    build_bundle,
    random_scene,
    throughput_bundle,
)
from tmeseg.taxonomy import default_taxonomy

TAX = default_taxonomy()


def test_shapes_produce_expected_pixels():
    ys, xs = Disc(4, 4, 1.0).pixels(9, 9)
    assert sorted(zip(ys.tolist(), xs.tolist())) == [
        (3, 4),
        (4, 3),
        (4, 4),
        (4, 5),
        (5, 4),
    ]
    ys, xs = Ellipse(4, 4, 1.0, 2.0).pixels(9, 9)
    assert (ys.size, xs.size) == (7, 7)
    # clipping at the frame
    ys, xs = Disc(0, 0, 1.0).pixels(9, 9)
    assert sorted(zip(ys.tolist(), xs.tolist())) == [(0, 0), (0, 1), (1, 0)]
    ys, xs = Disc(-50, -50, 1.0).pixels(9, 9)
    assert ys.size == 0


def test_bundle_intensities_without_noise():
    scene = SceneSpec(
        height=32,
        width=32,
        tissue=(TissuePatch(Disc(16, 16, 10)),),
        nuclei=(NucleusSpec(Disc(16, 16, 3), class_name="lymphocyte"),),
    )
    bundle = build_bundle(scene)
    assert tuple(bundle.he[0, 0]) == (GLASS,) * 3
    assert tuple(bundle.he[16, 16]) == (NUCLEUS_INK,) * 3
    assert tuple(bundle.he[16, 8]) == (TISSUE_INK,) * 3
    lym = bundle.cell_logits.plane(TAX.resolve("lymphocyte"))
    assert lym[16, 16] == np.float32(3.0)
    assert lym[0, 0] == np.float32(-2.0)
    assert bundle.nuclei.ids[16, 16] == 1


def test_overlapping_nuclei_rejected():
    scene = SceneSpec(
        height=32,
        width=32,
        nuclei=(
            NucleusSpec(Disc(16, 16, 3)),
            NucleusSpec(Disc(17, 17, 3)),
        ),
    )
    with pytest.raises(ValueError, match="nucleus 2 overlaps"):
        build_bundle(scene)


def test_nucleus_outside_frame_rejected():
    scene = SceneSpec(height=32, width=32, nuclei=(NucleusSpec(Disc(-90, -90, 2)),))
    with pytest.raises(ValueError, match="no pixels"):
        build_bundle(scene)


def test_unknown_channel_name_rejected():
    scene = SceneSpec(
        height=16,
        width=16,
        nuclei=(NucleusSpec(Disc(8, 8, 2), class_name="mitotic_cell"),),
    )
    # mitotic_cell is a pipeline output, not a teacher channel
    with pytest.raises(ValueError, match="not a channel"):
        build_bundle(scene)


def test_candidate_drawings_are_exact_after_noise():
    scene = SceneSpec(
        height=64,
        width=64,
        tissue=(TissuePatch(Disc(32, 32, 25)),),
        candidates=(CandidateSpec(32.0, 32.0, draw="blob", radius=2.0, intensity=20),),
        noise_seed=3,
    )
    bundle = build_bundle(scene)
    ys, xs = Disc(32, 32, 2.0).pixels(64, 64)
    assert (bundle.he[ys, xs] == 20).all()
    assert bundle.mitosis_candidates == ((32.0, 32.0, 0.9),)


def test_bad_candidate_drawing_rejected():
    scene = SceneSpec(
        height=16, width=16, candidates=(CandidateSpec(8.0, 8.0, draw="smudge"),)
    )
    with pytest.raises(ValueError, match="smudge"):
        build_bundle(scene)


def test_noise_keeps_dtype_and_range():
    scene = SceneSpec(height=48, width=48, noise_seed=5, noise_he=60)
    bundle = build_bundle(scene)
    assert bundle.he.dtype == np.uint8
    assert bundle.he.max() <= 255 and bundle.he.min() >= 0


def test_same_seed_scene_is_byte_identical():
    a = build_bundle(random_scene(42))
    b = build_bundle(random_scene(42))
    assert np.array_equal(a.he, b.he)
    assert np.array_equal(a.tissue_logits.planes, b.tissue_logits.planes)
    assert np.array_equal(a.cell_logits.planes, b.cell_logits.planes)
    assert np.array_equal(a.nuclei.ids, b.nuclei.ids)
    assert a.mitosis_candidates == b.mitosis_candidates
    assert random_scene(42) == random_scene(42)


def test_different_seeds_differ():
    a = build_bundle(random_scene(1))
    b = build_bundle(random_scene(2))
    assert not np.array_equal(a.he, b.he)


def test_random_scene_bundles_validate():
    for seed in range(6):
        build_bundle(random_scene(seed)).validate()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"height": 29}, "height must be at least 30, got 29"),
        ({"width": 0}, "width must be at least 30, got 0"),
        ({"max_nuclei": -1}, "max_nuclei must be at least 0, got -1"),
        ({"max_candidates": -3}, "max_candidates must be at least 0, got -3"),
    ],
)
def test_random_scene_rejects_values_below_its_bounds(kwargs, message):
    with pytest.raises(ValueError, match=message):
        random_scene(0, **kwargs)


def test_random_scene_at_its_bounds():
    for seed in range(20):
        scene = random_scene(seed, height=30, width=30, max_nuclei=0, max_candidates=0)
        assert (scene.height, scene.width, scene.nuclei, scene.candidates) == (30, 30, (), ())
        build_bundle(scene).validate()


def test_fixture_returns_reference_truth():
    scene = SceneSpec(
        height=48,
        width=48,
        tissue=(TissuePatch(Ellipse(24, 24, 18, 20)),),
        nuclei=(NucleusSpec(Disc(24, 24, 3), class_name="lymphocyte"),),
    )
    ref = reference_aggregate(build_bundle(scene))
    assert ref["classes"] == {1: TAX.resolve("lymphocyte")}
    assert ref["semantic"].shape == (48, 48)
    assert not ref["mitosis_mask"].any()


def test_throughput_bundle_small_variant():
    bundle = throughput_bundle(size=512, seed=0)
    bundle.validate()
    assert bundle.he.shape == (512, 512, 3)
    assert len(bundle.nuclei.instance_ids) > 10
    assert len(bundle.mitosis_candidates) > 0


def test_throughput_bundle_2200_is_pinned():
    """``golden.json`` pins ``throughput_bundle(512)``, which has one
    epithelial band only. At 2200 px the frame also holds the smooth-muscle
    band (rows 1024-1535), a second epithelial band (from row 2048) and
    candidates on both epithelial bands; the digest pins every pixel of them."""
    bundle = throughput_bundle(2200, seed=7)
    assert (len(bundle.nuclei.attrs), len(bundle.mitosis_candidates)) == (1444, 44)
    digest = hashlib.sha256()
    for arr in (bundle.he, bundle.tissue_logits.planes, bundle.cell_logits.planes,
                bundle.nuclei.ids):
        digest.update(np.ascontiguousarray(arr).tobytes())
    types = sorted((g, a.teacher_type) for g, a in bundle.nuclei.attrs.items())
    digest.update(repr((types, bundle.mitosis_candidates)).encode())
    assert digest.hexdigest() == (
        "2f9cede678465644e7b806143d781d8358d0bd65f7419d25abcc2d148a3b851d"
    )
