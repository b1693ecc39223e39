"""Slide-level tumor-microenvironment analytics.

Given a panoptic label raster: cell-type-to-tumor-cell ratios across the
whole slide, cell densities in the micron-scale band hugging the tumor
margin, and Mann-Whitney U association tests between per-case metrics and
mutation flags. Documented conventions (the source quantities leave them
open): density is components-per-mm² of band area, band membership is
decided by the component centroid, and the band lies strictly outside the
tumor region.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import MARGIN_UM
from .raster import connected_components, distance_band
from .taxonomy import EPITHELIAL_CELL_NUCLEUS, EPITHELIAL_TISSUE, ids_of

# Cell classes reported in the spatial metrics; all_leukocytes pools the
# generic class with its subtypes.
METRIC_CLASSES = (
    "fibroblast",
    "endothelial_cell",
    "lymphocyte",
    "plasma_cell",
    "myeloid_cell",
    "neutrophil",
    "eosinophil",
)
LEUKOCYTE_POOL = (
    "leukocyte",
    "lymphocyte",
    "plasma_cell",
    "myeloid_cell",
    "eosinophil",
    "neutrophil",
)
ALL_LEUKOCYTES = "all_leukocytes"
# Class ids counted under each reported name: each metric class alone, then
# the leukocyte pool.
POOLS = {name: (cid,) for name, cid in zip(METRIC_CLASSES, ids_of(METRIC_CLASSES))}
POOLS[ALL_LEUKOCYTES] = ids_of(LEUKOCYTE_POOL)


@dataclass
class SlideMetrics:
    tumor_cell_count: int
    band_area_px: int
    band_area_mm2: float
    mpp: float
    margin_um: float
    in_tumor_ratio: dict[str, Optional[float]] = field(default_factory=dict)
    peripheral_ratio: dict[str, Optional[float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    band_counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "tumor_cell_count": self.tumor_cell_count,
            "band_area_px": self.band_area_px,
            "band_area_mm2": self.band_area_mm2,
            "mpp": self.mpp,
            "margin_um": self.margin_um,
            "in_tumor_ratio": self.in_tumor_ratio,
            "peripheral_ratio": self.peripheral_ratio,
            "counts": self.counts,
            "band_counts": self.band_counts,
        }


def _band_pixel(centroid: tuple[float, float], band: np.ndarray) -> bool:
    """Nearest-pixel band membership for a (row, col) centroid."""
    r = int(math.floor(centroid[0] + 0.5))
    c = int(math.floor(centroid[1] + 0.5))
    h, w = band.shape
    return 0 <= r < h and 0 <= c < w and bool(band[r, c])


def slide_metrics(
    mask: np.ndarray, mpp: float, margin_um: float = MARGIN_UM
) -> SlideMetrics:
    """Whole-slide ratios and margin-band densities.

    Tumor region = all epithelial pixels (tissue plus nucleus class);
    tumor cells = epithelial-nucleus components. in_tumor ratio per class
    is slide-wide component count over tumor cell count; peripheral ratio
    is band density (centroid-in-band components per mm² of band) over
    tumor cell count. Ratios are None when the slide has no tumor cells.
    """
    if not (math.isfinite(mpp) and mpp > 0):
        raise ValueError("mpp must be positive and finite")
    mask = np.asarray(mask)
    tumor_region = (mask == EPITHELIAL_TISSUE) | (mask == EPITHELIAL_CELL_NUCLEUS)
    tumor_cells = len(connected_components(mask == EPITHELIAL_CELL_NUCLEUS).attrs)

    band = distance_band(tumor_region, margin_um, mpp)
    band_px = int(band.sum())
    band_mm2 = band_px * mpp * mpp / 1e6

    out = SlideMetrics(
        tumor_cell_count=tumor_cells,
        band_area_px=band_px,
        band_area_mm2=band_mm2,
        mpp=mpp,
        margin_um=margin_um,
    )

    # (components, components centred in the band) per class, each class labelled once
    per_class = {}
    for cid in sorted({c for ids in POOLS.values() for c in ids}):
        attrs = connected_components(mask == cid).attrs.values()
        per_class[cid] = (len(attrs), sum(_band_pixel(a.centroid, band) for a in attrs))
    for name, ids in POOLS.items():
        count = sum(per_class[c][0] for c in ids)
        in_band = sum(per_class[c][1] for c in ids)
        out.counts[name] = count
        out.band_counts[name] = in_band
        if tumor_cells == 0:
            out.in_tumor_ratio[name] = None
            out.peripheral_ratio[name] = None
        else:
            out.in_tumor_ratio[name] = count / tumor_cells
            density = in_band / band_mm2 if band_mm2 > 0 else 0.0
            out.peripheral_ratio[name] = density / tumor_cells
    return out


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


def _rank_data(pooled: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Integer doubled midranks per element plus per-group tie counts."""
    arr = np.asarray(pooled, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    # group boundaries of equal values
    boundaries = np.nonzero(np.diff(sorted_vals))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [arr.size]))
    two_rank = np.empty(arr.size, dtype=np.int64)
    for s, e in zip(starts, ends):
        # ranks s+1 .. e (1-based); doubled midrank = (s+1) + e
        two_rank[order[s:e]] = (s + 1) + e
    return two_rank, (ends - starts).astype(np.int64)


def _exact_two_sided_p(n1: int, n2: int, groups: list[int], two_u: int) -> float:
    """Exact two-sided p over all assignments of ``n1`` and ``n2`` items,
    ties included; ``groups`` are ``_rank_data``'s tie counts, by value.

    Dynamic program over distinct pooled values tracking (items assigned
    to the first sample, doubled U); weights are binomial counts, so the
    distribution is exact for any tie pattern.
    """
    # dp[(k, u2)] = number of assignments of k items to sample 1 so far
    dp: dict[tuple[int, int], int] = {(0, 0): 1}
    below = 0  # pooled items in earlier groups
    for m in groups:
        ndp: dict[tuple[int, int], int] = {}
        binom = [math.comb(m, j) for j in range(m + 1)]
        for (k, u2), ways in dp.items():
            b_below = below - k
            for j in range(0, min(m, n1 - k) + 1):
                # each of the j sample-1 items beats b_below items and
                # half-ties with the (m - j) sample-2 items of this group
                nu2 = u2 + j * 2 * b_below + j * (m - j)
                key = (k + j, nu2)
                ndp[key] = ndp.get(key, 0) + ways * binom[j]
        dp = ndp
        below += m
    dist: dict[int, int] = {}
    for (k, u2), ways in dp.items():
        if k == n1:
            dist[u2] = dist.get(u2, 0) + ways
    total = math.comb(n1 + n2, n1)
    p_le = sum(w for u2, w in dist.items() if u2 <= two_u) / total
    p_ge = sum(w for u2, w in dist.items() if u2 >= two_u) / total
    return min(1.0, 2.0 * min(p_le, p_ge))


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], exact_max_n: int = 8
) -> dict[str, float]:
    """U statistic for the first sample plus a two-sided p-value.

    Ties take midranks. The p-value comes from exact enumeration when
    min(len(a), len(b)) <= exact_max_n, else from the normal approximation
    with tie correction and a 0.5 continuity correction.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    pooled = list(a) + list(b)
    two_rank, tie_counts = _rank_data(pooled)
    two_r1 = int(two_rank[:n1].sum())
    two_u = two_r1 - n1 * (n1 + 1)  # doubled U, integer-exact with ties
    u = two_u / 2.0

    if min(n1, n2) <= exact_max_n:
        p = _exact_two_sided_p(n1, n2, tie_counts.tolist(), two_u)
    else:
        n = n1 + n2
        tie_term = int(((tie_counts**3) - tie_counts).sum())
        sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        if sigma2 <= 0:
            p = 1.0
        else:
            mu = n1 * n2 / 2.0
            z = (abs(u - mu) - 0.5) / math.sqrt(sigma2)
            z = max(z, 0.0)
            p = math.erfc(z / math.sqrt(2.0))
    return {"U": u, "p_value": min(1.0, p)}


# ---------------------------------------------------------------------------
# Mutation association
# ---------------------------------------------------------------------------


@dataclass
class CaseRecord:
    """One case: metric values (mean over its slides) and mutation flags."""

    case_id: str
    metrics: dict[str, Optional[float]]
    mutations: dict[str, bool]

    @classmethod
    def from_slides(
        cls,
        case_id: str,
        slides: Iterable[SlideMetrics],
        mutations: dict[str, bool],
    ) -> "CaseRecord":
        """Arithmetic mean of each metric over the case's slides.

        Slides where a ratio is undefined (no tumor) are skipped for that
        metric; a metric undefined on every slide stays None.
        """
        values: dict[str, list[float]] = {}
        for sm in slides:
            for bucket, prefix in (
                (sm.in_tumor_ratio, "in_tumor"),
                (sm.peripheral_ratio, "peripheral"),
            ):
                for name, v in bucket.items():
                    if v is not None:
                        values.setdefault(f"{prefix}/{name}", []).append(v)
        metrics = {k: sum(v) / len(v) for k, v in values.items()}
        return cls(case_id=case_id, metrics=metrics, mutations=mutations)


def association_table(
    cases: Sequence[CaseRecord],
    genes: Sequence[str],
    metrics: Optional[Sequence[str]] = None,
) -> dict[str, dict[str, dict]]:
    """Nominal Mann-Whitney p-values for every (metric, gene) pair.

    Direction is read from the U statistic of the mutated group:
    "enriched" when mutated cases rank higher, "depleted" when lower.
    Pairs with fewer than two cases on either side are marked
    "insufficient n". No multiple-testing correction is applied.
    """
    if metrics is None:
        seen: list[str] = []
        for case in cases:
            for name in case.metrics:
                if name not in seen:
                    seen.append(name)
        metrics = seen
    table: dict[str, dict[str, dict]] = {}
    for metric in metrics:
        row: dict[str, dict] = {}
        for gene in genes:
            mut = [
                c.metrics[metric]
                for c in cases
                if c.mutations.get(gene, False) and c.metrics.get(metric) is not None
            ]
            wt = [
                c.metrics[metric]
                for c in cases
                if not c.mutations.get(gene, False)
                and c.metrics.get(metric) is not None
            ]
            if len(mut) < 2 or len(wt) < 2:
                row[gene] = {"marker": "insufficient n", "n_mut": len(mut), "n_wt": len(wt)}
                continue
            res = mann_whitney_u(mut, wt)
            half = len(mut) * len(wt) / 2.0
            if res["U"] > half:
                direction = "enriched"
            elif res["U"] < half:
                direction = "depleted"
            else:
                direction = "balanced"
            row[gene] = {
                "p_value": res["p_value"],
                "U": res["U"],
                "direction": direction,
                "n_mut": len(mut),
                "n_wt": len(wt),
            }
        table[metric] = row
    return table


def association_csv(table: dict[str, dict[str, dict]]) -> str:
    """Long-format CSV (metric, gene, p_value, direction, n_mut, n_wt, marker);
    a field holding a comma or a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["metric", "gene", "p_value", "direction", "n_mut", "n_wt", "marker"])
    for metric, row in table.items():
        for gene, cell in row.items():
            p_value = repr(cell["p_value"]) if "p_value" in cell else ""
            rest = [cell.get(k, "") for k in ("direction", "n_mut", "n_wt", "marker")]
            writer.writerow([metric, gene, p_value, *rest])
    return out.getvalue()
