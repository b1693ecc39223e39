"""Run configuration for the aggregation pipeline.

Every tunable carries its production default; tests and the CLI construct
a single RunConfig and pass it through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Optional

# Fields that must hold a Python int (not a bool); background_threshold may be None.
_INT_FIELDS = (
    "mitosis_roi_radius_px",
    "carbon_rgb_sum_max",
    "mitosis_min_area_px",
    "crop_px",
    "stride_px",
    "background_threshold",
)


@dataclass(frozen=True)
class RunConfig:
    blur_sigma: float = 2.0
    mitosis_roi_radius_px: int = 30
    carbon_rgb_sum_max: int = 40
    mitosis_min_area_px: int = 3
    margin_um: float = 50.0
    crop_px: int = 384
    stride_px: int = 320
    # Fixed background threshold; None means Otsu over the whole frame.
    background_threshold: Optional[int] = None
    mpp: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if name == "background_threshold" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.blur_sigma <= 0:
            raise ValueError("blur_sigma must be positive")
        if self.mitosis_roi_radius_px < 1:
            raise ValueError("mitosis_roi_radius_px must be >= 1")
        if self.carbon_rgb_sum_max < 0:
            raise ValueError("carbon_rgb_sum_max must be >= 0")
        if self.mitosis_min_area_px < 1:
            raise ValueError("mitosis_min_area_px must be >= 1")
        if self.margin_um <= 0:
            raise ValueError("margin_um must be positive")
        if self.crop_px < 1:
            raise ValueError("crop_px must be >= 1")
        if not 1 <= self.stride_px <= self.crop_px:
            raise ValueError("stride_px must be in [1, crop_px]")
        if self.background_threshold is not None and not (
            0 <= self.background_threshold <= 255
        ):
            raise ValueError("background_threshold must be in [0, 255]")
        if self.mpp <= 0:
            raise ValueError("mpp must be positive")

    def to_json(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def config_from_json(doc: dict[str, Any]) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**doc)
