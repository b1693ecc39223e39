"""Teacher-aggregation panoptic segmentation for H&E tumor-microenvironment
analysis: logit fusion, nucleus voting, mitosis filtering, evaluation
metrics, cell counting, spatial analytics, and a bit-exact raster format.

Import from the submodules, e.g. ``from tmeseg.aggregate import aggregate``.
"""

__version__ = "0.1.0"
