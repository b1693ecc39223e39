"""The names ``bench/child.py`` reads, bound to the one pipeline driver,
``aggregate.aggregate``, and its ``TilePlan``. ROADMAP item 1 deletes this
module."""

from . import aggregate as _pipeline

TilePlan, tiled_aggregate = _pipeline.TilePlan, _pipeline.aggregate
