import numpy as np
import pytest

from tmeseg.postprocess import (
    NON_NUCLEUS_CLASSES,
    NUCLEUS_CLASSES,
    force_mode,
    panoptic_assign,
)
from tmeseg.raster import InstanceMap, LogitStack
from tmeseg.taxonomy import default_taxonomy

TAX = default_taxonomy()


def full_stack(h=4, w=4, fill=-1.0, **planes):
    """A stack of every class, ``fill`` but for the planes named in ``planes``."""
    ids = tuple(TAX.ids)
    values = np.full((len(ids), h, w), fill, dtype=np.float32)
    for name, value in planes.items():
        values[ids.index(TAX.resolve(name))] = value
    return LogitStack(ids, values)


def test_vocabulary_must_be_complete():
    ids = tuple(TAX.ids)[:-1]
    short = LogitStack(ids, np.zeros((len(ids), 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="mitotic_cell"):
        force_mode(short)
    nuclei = InstanceMap.from_ids(np.zeros((2, 2), dtype=np.int32))
    with pytest.raises(ValueError, match="mitotic_cell"):
        panoptic_assign(short, nuclei)


def test_rosters_partition_the_vocabulary():
    names = set(NUCLEUS_CLASSES) | set(NON_NUCLEUS_CLASSES) | {"leukocyte"}
    assert names == set(TAX.names)
    assert not set(NUCLEUS_CLASSES) & set(NON_NUCLEUS_CLASSES)


# ---------------------------------------------------------------------------
# Force mode
# ---------------------------------------------------------------------------


def test_force_mode_is_argmax():
    stack = full_stack(stroma=2.0, epithelial_tissue=1.0)
    labels = force_mode(stack)
    assert (labels == TAX.resolve("stroma")).all()


def test_force_mode_pushes_leukocyte_to_subtype():
    # plasma_cell is the best subtype despite being negative
    stack = full_stack(leukocyte=5.0, plasma_cell=-0.5, lymphocyte=-0.8)
    labels = force_mode(stack)
    assert (labels == TAX.resolve("plasma_cell")).all()
    assert not (labels == TAX.resolve("leukocyte")).any()


def test_force_mode_subtype_tie_takes_lowest_id():
    stack = full_stack(leukocyte=5.0, myeloid_cell=1.0, neutrophil=1.0)
    labels = force_mode(stack)
    assert (labels == TAX.resolve("myeloid_cell")).all()  # 9 < 11


def test_force_mode_global_tie_takes_lowest_id():
    stack = full_stack(stroma=3.0, fibroblast=3.0)
    assert (force_mode(stack) == TAX.resolve("stroma")).all()


# ---------------------------------------------------------------------------
# Panoptic mode
# ---------------------------------------------------------------------------


def test_panoptic_regions_ignore_nucleus_channels():
    # lymphocyte is a nucleus class: irrelevant outside nuclei
    stack = full_stack(lymphocyte=9.0, smooth_muscle=0.5)
    labels, classes = panoptic_assign(stack, InstanceMap.from_ids(np.zeros((4, 4), np.int32)))
    assert (labels == TAX.resolve("smooth_muscle")).all()
    assert classes == {}


def test_panoptic_nucleus_takes_best_logit_sum():
    ids = np.zeros((4, 4), np.int32)
    ids[1:3, 1:3] = 1
    lym = np.full((4, 4), -1.0, dtype=np.float32)
    lym[1:3, 1:3] = (
        np.array([[3.0, -1.0], [0.5, 0.5]], dtype=np.float32)
    )  # sum 3.0 over the nucleus
    neu = np.full((4, 4), -1.0, dtype=np.float32)
    neu[1:3, 1:3] = 0.6  # sum 2.4: loses despite winning 3 of 4 pixels
    stack = full_stack(4, 4, lymphocyte=lym, neutrophil=neu)
    labels, classes = panoptic_assign(stack, InstanceMap.from_ids(ids))
    assert classes == {1: TAX.resolve("lymphocyte")}
    assert (labels[ids == 1] == TAX.resolve("lymphocyte")).all()


def test_panoptic_every_nucleus_gets_a_class():
    # even an all-negative nucleus is forced to some nucleus class
    stack = full_stack()
    ids = np.zeros((4, 4), np.int32)
    ids[0, 0] = 3
    labels, classes = panoptic_assign(stack, InstanceMap.from_ids(ids))
    assert set(classes) == {3}
    assert TAX.name_of(classes[3]) in NUCLEUS_CLASSES
    # all channels equal: tie resolves to the lowest nucleus-class id
    assert classes[3] == TAX.resolve("endothelial_cell")


def test_panoptic_never_emits_leukocyte_or_tissue_on_nuclei():
    rng = np.random.default_rng(6)
    channels = tuple(TAX.ids)
    stack = LogitStack(channels, rng.normal(size=(len(channels), 12, 12)).astype(np.float32))
    ids = np.zeros((12, 12), np.int32)
    ids[2:5, 2:5] = 1
    ids[7:9, 7:10] = 2
    labels, classes = panoptic_assign(stack, InstanceMap.from_ids(ids))
    leu = TAX.resolve("leukocyte")
    assert not (labels == leu).any()
    nucleus_ids = {TAX.resolve(n) for n in NUCLEUS_CLASSES}
    region_ids = {TAX.resolve(n) for n in NON_NUCLEUS_CLASSES}
    assert set(np.unique(labels[ids > 0]).tolist()) <= nucleus_ids
    assert set(np.unique(labels[ids == 0]).tolist()) <= region_ids
    assert set(classes) == {1, 2}


def test_panoptic_rejects_mismatched_shapes():
    stack = full_stack(4, 4)
    with pytest.raises(ValueError, match="dimensions"):
        panoptic_assign(stack, InstanceMap.from_ids(np.zeros((5, 5), np.int32)))
