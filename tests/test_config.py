import pytest

from tmeseg.config import RunConfig


@pytest.mark.parametrize("key", ["blur_sigma", "margin_um", "mpp"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_floats_rejected(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        RunConfig(**{key: value})

