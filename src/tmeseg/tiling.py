"""The names ``bench/child.py`` reads: a ``TilePlan`` of crop and stride, and
``tiled_aggregate``, the one pipeline driver, ``aggregate.aggregate``, run with
the plan set into the config. ROADMAP item 1 deletes this module."""

import dataclasses

from . import aggregate as _pipeline


@dataclasses.dataclass(frozen=True)
class TilePlan:
    crop: int
    stride: int


def tiled_aggregate(bundle, config, plan: TilePlan, workers: int = 1):
    cfg = dataclasses.replace(config, crop_px=plan.crop, stride_px=plan.stride)  # checked there
    return _pipeline.aggregate(bundle, cfg, workers)
