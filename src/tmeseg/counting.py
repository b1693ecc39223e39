"""Area-based cell counting and the area-to-count calibration fit.

Semantic-only outputs lose instance boundaries, so cell numbers are
recovered two ways: connected-component counts (merging of touching cells
is a documented limitation) and pixel-area divided by a calibrated mean
area per cell. The calibration is a least-squares fit of
``count = area / slope`` through the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .raster import connected_components


@dataclass(frozen=True)
class CountRecord:
    class_id: int
    pixel_area: int
    component_count: int
    mean_area_per_cell: Optional[float] = None

    def __post_init__(self):
        if self.component_count < 0:
            raise ValueError("component_count must be >= 0")
        if self.pixel_area < self.component_count:
            raise ValueError("each component needs at least one pixel")
        mean = self.mean_area_per_cell
        if mean is not None and not (math.isfinite(mean) and mean > 0):
            raise ValueError("mean_area_per_cell must be positive and finite")

    @property
    def area_estimate(self) -> Optional[float]:
        if self.mean_area_per_cell is None:
            return None
        return self.pixel_area / self.mean_area_per_cell


def count_record(
    mask: np.ndarray, class_id: int, mean_area: Optional[float] = None
) -> CountRecord:
    """Pixel area and component count from one labelling of the class."""
    attrs = connected_components(np.asarray(mask) == class_id).attrs
    return CountRecord(
        class_id=class_id,
        pixel_area=sum(a.pixel_count for a in attrs.values()),
        component_count=len(attrs),
        mean_area_per_cell=mean_area,
    )


def calibrate(pairs: Sequence[tuple[float, float]]) -> dict[str, float]:
    """Fit count = area / slope through the origin.

    ``pairs`` holds (pixel_area, reference_count). Returns the slope (mean
    area per cell) and the coefficient of determination of the fit,
    computed against the through-origin model with the uncentered total
    sum of squares (conventions differ; this one keeps r² = 1 exactly for
    proportional data).
    """
    if len(pairs) < 2:
        raise ValueError("calibration needs at least two (area, count) pairs")
    a = np.asarray([p[0] for p in pairs], dtype=np.float64)
    c = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        raise ValueError("areas and counts must be finite")
    if (a < 0).any() or (c < 0).any():
        raise ValueError("areas and counts must be non-negative")
    saa = float(a @ a)
    sac = float(a @ c)
    if saa == 0.0:
        raise ValueError("degenerate calibration input: all areas are zero")
    if sac == 0.0:
        raise ValueError("degenerate calibration input: counts do not grow with area")
    slope = saa / sac  # count = area/slope minimizes sum (c - a/slope)^2
    residual = c - a / slope
    ss_res = float(residual @ residual)
    ss_tot = float(c @ c)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return {"slope": slope, "r_squared": r_squared}
