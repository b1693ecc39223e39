import pytest

from tmeseg.taxonomy import (
    ClassMap,
    UnknownClassError,
    class_map_from_json,
    default_taxonomy,
    identity_class_map,
)

EXPECTED_ORDER = [
    "background",
    "stroma",
    "smooth_muscle",
    "epithelial_tissue",
    "leukocyte",
    "endothelial_cell",
    "red_blood_cell",
    "lymphocyte",
    "plasma_cell",
    "myeloid_cell",
    "eosinophil",
    "neutrophil",
    "epithelial_cell_nucleus",
    "fibroblast",
    "mitotic_cell",
]


def test_roster_ids_and_names():
    tax = default_taxonomy()
    assert list(tax.names) == EXPECTED_ORDER
    assert list(tax.ids) == list(range(15))
    for i, name in enumerate(EXPECTED_ORDER):
        assert tax.resolve(name) == i
        assert tax.name_of(i) == name


def test_hierarchy_levels():
    tax = default_taxonomy()
    by_name = [sorted(tax.name_of(c) for c in lv) for lv in tax.levels]
    assert by_name[0] == ["epithelial_tissue", "smooth_muscle"]
    assert by_name[1] == ["endothelial_cell", "leukocyte", "red_blood_cell"]
    assert by_name[2] == ["lymphocyte", "myeloid_cell", "plasma_cell"]
    assert by_name[3] == ["eosinophil", "neutrophil"]
    assert tax.level_of(tax.resolve("lymphocyte")) == 3
    assert tax.level_of(tax.resolve("smooth_muscle")) == 1
    assert tax.level_of(tax.resolve("background")) is None


def test_aliases_resolve():
    tax = default_taxonomy()
    assert tax.resolve("connective") == tax.resolve("fibroblast")
    assert tax.resolve("epithelium") == tax.resolve("epithelial_tissue")
    assert tax.resolve("epithelial") == tax.resolve("epithelial_tissue")
    assert tax.resolve("mitotic_figure") == tax.resolve("mitotic_cell")
    assert tax.resolve("endothelial") == tax.resolve("endothelial_cell")


def test_case_insensitive_lookup():
    tax = default_taxonomy()
    assert tax.resolve("Lymphocyte") == tax.resolve("lymphocyte")
    assert tax.resolve("SMOOTH_MUSCLE") == tax.resolve("smooth_muscle")


def test_unknown_name_raises_with_vocabulary():
    tax = default_taxonomy()
    with pytest.raises(UnknownClassError) as exc:
        tax.resolve("astrocyte")
    assert "astrocyte" in str(exc.value)


def test_identity_class_map():
    tax = default_taxonomy()
    cmap = identity_class_map()
    assert cmap.eval_classes == tax.names
    for cid in tax.ids:
        assert cmap.map_id(cid) == cid


def test_class_map_from_json_unlisted_is_unmapped():
    tax = default_taxonomy()
    doc = {
        "eval_classes": ["lymphocyte", "plasma_cell"],
        "map": {"lymphocyte": "lymphocyte", "plasma_cell": "plasma_cell",
                "myeloid_cell": None},
    }
    cmap = class_map_from_json(doc)
    assert cmap.map_id(tax.resolve("lymphocyte")) == 0
    assert cmap.map_id(tax.resolve("plasma_cell")) == 1
    assert cmap.map_id(tax.resolve("myeloid_cell")) is None
    assert cmap.map_id(tax.resolve("background")) is None


def test_class_map_totality_enforced():
    with pytest.raises(ValueError):
        ClassMap(("lymphocyte",), {0: None})  # misses most source ids
