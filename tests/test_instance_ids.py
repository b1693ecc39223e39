"""Nucleus ids need not be dense: results depend on the ids' order only,
and no per-nucleus array is sized by an id value."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from tmeseg.aggregate import aggregate
from tmeseg.metrics import instance_eval_units
from tmeseg.postprocess import NUCLEUS_CLASSES, panoptic_assign
from tmeseg.raster import InstanceMap, LogitStack
from tmeseg.synth import build_bundle, random_scene
from tmeseg.taxonomy import class_map_from_json, default_taxonomy

TAX = default_taxonomy()
CMAP = class_map_from_json(
    {"eval_classes": list(NUCLEUS_CLASSES), "map": {n: n for n in NUCLEUS_CLASSES}}
)
NUCLEUS_IDS = [TAX.resolve(n) for n in NUCLEUS_CLASSES]


def _renumber(nuclei: InstanceMap, new_ids: list[int]) -> InstanceMap:
    """``nuclei`` with its ascending ids replaced by ``new_ids``."""
    rename = dict(zip(nuclei.instance_ids, new_ids))
    lut = np.zeros(max(rename) + 1, dtype=np.int32)
    lut[list(rename)] = list(rename.values())
    types = {rename[g]: a.teacher_type for g, a in nuclei.attrs.items()}
    return InstanceMap.from_ids(lut[nuclei.ids], types)


def _student(bundle, seed):
    rng = np.random.default_rng(seed)
    ids = tuple(TAX.ids)
    planes = rng.normal(size=(len(ids),) + bundle.he.shape[:2])
    return LogitStack(ids, planes.astype(np.float32))


def _gt_classes(gids):
    return {g: NUCLEUS_IDS[i % len(NUCLEUS_IDS)] for i, g in enumerate(gids)}


def _largest_coverage(ids, gid, pred):
    """Per-nucleus oracle for ``instance_eval_units``' predicted class."""
    idx = [CMAP.map_id(int(v)) for v in pred[ids == gid]]
    counts = [idx.count(k) for k in range(len(CMAP.eval_classes))]
    return counts.index(max(counts)) if max(counts) else None


def _top_heavy(n: int) -> list[int]:
    """``n`` ascending ids whose largest is 2**31 - 1."""
    top = np.iinfo(np.int32).max
    return [top - 997 * (n - 1 - i) for i in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monotone_renumbering_renames_results(seed):
    bundle = build_bundle(random_scene(seed))
    old = bundle.nuclei.instance_ids
    new = _top_heavy(len(old))
    rename = dict(zip(old, new))
    sparse = dataclasses.replace(bundle, nuclei=_renumber(bundle.nuclei, new))
    assert sparse.nuclei.instance_ids[-1] == 2**31 - 1

    a, b = aggregate(bundle), aggregate(sparse)
    b.check_invariants()
    assert np.array_equal(a.semantic, b.semantic)
    assert np.array_equal(a.mitosis.ids, b.mitosis.ids)
    assert {rename[g]: c for g, c in a.classes.items()} == b.classes
    assert [rename[g] for g in a.instances.gids.tolist()] == b.instances.gids.tolist()
    for x, y in zip(a.provenance, b.provenance):  # rows in gids order: renaming keeps it
        assert np.array_equal(x, y)

    student = _student(bundle, seed)
    labels_a, classes_a = panoptic_assign(student, bundle.nuclei)
    labels_b, classes_b = panoptic_assign(student, sparse.nuclei)
    assert np.array_equal(labels_a, labels_b)
    assert {rename[g]: c for g, c in classes_a.items()} == classes_b
    for gid, cls in classes_b.items():
        assert (labels_b[sparse.nuclei.ids == gid] == cls).all()

    units_a = instance_eval_units(bundle.nuclei, _gt_classes(old), a.semantic, CMAP)
    units_b = instance_eval_units(sparse.nuclei, _gt_classes(new), b.semantic, CMAP)
    assert [
        dataclasses.replace(u, instance_id=rename[u.instance_id]) for u in units_a
    ] == units_b
    for u in units_b:
        want = _largest_coverage(sparse.nuclei.ids, u.instance_id, b.semantic)
        assert u.pred_class == want


def _traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_large_id_allocates_little():
    bundle = build_bundle(random_scene(3))
    old = bundle.nuclei.instance_ids
    sparse = dataclasses.replace(
        bundle, nuclei=_renumber(bundle.nuclei, old[:-1] + [10**6])
    )
    pred = aggregate(bundle).semantic
    student = _student(bundle, 3)
    gt = _gt_classes(sparse.nuclei.instance_ids)
    bound = 8 << 20  # a dense-id tile of 96² stays well under 1 MB
    assert _traced_peak(lambda: aggregate(sparse)) <= bound
    assert _traced_peak(lambda: panoptic_assign(student, sparse.nuclei)) <= bound
    units = lambda: instance_eval_units(sparse.nuclei, gt, pred, CMAP)  # noqa: E731
    assert _traced_peak(units) <= bound
