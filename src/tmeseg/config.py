"""The method's fixed values, and the run configuration.

The aggregation rules fix their parameters (arXiv 2501.02909), so they are
module constants, not settings: the stages read them directly. RunConfig
is the one thing a run may set, and the one place it is checked: the crop
and stride that cut the blur cells, and a pinned glass threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Optional

BLUR_SIGMA = 2.0  # Gaussian sigma for the glass grayscale
BLUR_RADIUS = math.ceil(3 * BLUR_SIGMA)  # the context one blurred pixel reads: 6 px
MITOSIS_ROI_RADIUS_PX = 30  # circular ROI around a mitosis candidate
CARBON_RGB_SUM_MAX = 40  # an ROI with median RGB sum at or below this is carbon dust
MITOSIS_MIN_AREA_PX = 3  # smallest dark blob kept in an ROI
MARGIN_UM = 50.0  # width of the invasive-margin band
DEFAULT_MPP = 0.25  # microns per pixel where an input does not state it


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_scale(mpp, halo, where: str, error: type[ValueError] = ValueError) -> None:
    """The rule for a bundle's or a TMEF1 header's ``mpp`` and ``halo``,
    where None means absent: mpp a finite number > 0, halo an integer >= 0."""
    if mpp is not None and not (_is_number(mpp) and mpp > 0):
        raise error(f"{where}: mpp must be a finite number > 0")
    if halo is not None and not (_is_int(halo) and halo >= 0):
        raise error(f"{where}: halo must be an integer >= 0")


@dataclass(frozen=True)
class RunConfig:
    crop_px: int = 384
    stride_px: int = 320
    # Fixed background threshold; None means Otsu over the whole frame.
    background_threshold: Optional[int] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_int(value) and not (f.name == "background_threshold" and value is None):
                raise ValueError(f"{f.name} must be an integer")
        if self.crop_px < 1:
            raise ValueError("crop_px must be >= 1")
        if not 1 <= self.stride_px <= self.crop_px:
            raise ValueError("stride_px must be in [1, crop_px]")
        if self.background_threshold is not None and not (
            0 <= self.background_threshold <= 255
        ):
            raise ValueError("background_threshold must be in [0, 255]")

    def to_json(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def config_from_json(doc: dict[str, Any]) -> RunConfig:
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**doc)
