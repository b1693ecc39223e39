import pytest

from tmeseg.config import RunConfig, config_from_json

INT_FIELDS = ["crop_px", "stride_px", "background_threshold"]
# Fields that became constants in tmeseg.config: a config JSON holding one is
# refused as an unknown key, whatever its value.
REMOVED_INT_KEYS = ["mitosis_roi_radius_px", "carbon_rgb_sum_max", "mitosis_min_area_px"]


@pytest.mark.parametrize("key", ["blur_sigma", "margin_um", "mpp"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_floats_rejected(key, value):
    # no float is settable any more: each former float field is an unknown key
    with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
        config_from_json({key: value})


@pytest.mark.parametrize("key", INT_FIELDS + REMOVED_INT_KEYS)
@pytest.mark.parametrize("value", [8.0, 30.5, True])
def test_integer_fields_reject_floats_and_bools(key, value):
    expected = (
        f"{key} must be an integer" if key in INT_FIELDS else rf"unknown config keys: \['{key}'\]"
    )
    with pytest.raises(ValueError, match=expected):
        config_from_json({key: value})


def test_background_threshold_may_be_none():
    assert RunConfig(background_threshold=None).background_threshold is None


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"crop_px": 0}, r"crop_px must be >= 1"),
        ({"stride_px": 0}, r"stride_px must be in \[1, crop_px\]"),
        ({"crop_px": 64, "stride_px": 65}, r"stride_px must be in \[1, crop_px\]"),
        ({"background_threshold": -1}, r"background_threshold must be in \[0, 255\]"),
        ({"background_threshold": 256}, r"background_threshold must be in \[0, 255\]"),
    ],
    ids=["crop-0", "stride-0", "stride-above-crop", "threshold-negative", "threshold-256"],
)
@pytest.mark.parametrize("build", [lambda doc: RunConfig(**doc), config_from_json],
                         ids=["direct", "json"])
def test_range_checks(build, doc, message):
    # the only checks of the blur partition and the glass threshold
    with pytest.raises(ValueError, match=message):
        build(doc)


def test_range_bounds_are_accepted():
    for doc in ({"crop_px": 1, "stride_px": 1}, {"crop_px": 64, "stride_px": 64},
                {"background_threshold": 0}, {"background_threshold": 255}):
        assert config_from_json(doc).to_json() == {**RunConfig().to_json(), **doc}
