"""Call spans for the benchmark's traced runs, kept in memory.

``install()`` wraps every public function of the measured tmeseg modules,
plus the few private ones the per-module metrics name, at module-attribute
level: each binding of a wrapped function in any loaded ``tmeseg.*``
module is replaced, so calls made inside the package go through the
wrappers too. A span holds (name, start, end, parent, op); counters record
computed work (bytes, pixels, windows, candidates) where it happens.
Nothing is written until ``dump()``; self time is derived in ``summary()``.

Spans recorded in forked pool workers stay in the workers and are lost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MEASURED = (
    "container",
    "aggregate",
    "raster",
    "tiling",
    "postprocess",
    "metrics",
    "counting",
    "tme",
    "cli",
)
PRIVATE = {
    "cli": ("_provenance", "_sha256_file"),
    "tiling": ("_claimed_ids", "_run_window"),
}
METHODS = (
    ("raster", "InstanceMap", "from_ids"),
    ("aggregate", "TeacherBundle", "validate"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_load(counters, args, kwargs, result):
    counters["container.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    counters["container.files_opened"] += 1


def _count_save(counters, args, kwargs, result):
    counters["container.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    counters["container.files_opened"] += 1


def _count_hash(counters, args, kwargs, result):
    counters["cli.bytes_hashed"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_blur(counters, args, kwargs, result):
    img = _arg(args, kwargs, 0, "img")
    counters["raster.px_blurred"] += img.shape[0] * img.shape[1]


def _count_mitosis(counters, args, kwargs, result):
    counters["aggregate.mitosis_candidates"] += len(_arg(args, kwargs, 0, "candidates"))
    counters["aggregate.mitosis_regions"] += len(result.attrs)


def _count_windows(counters, args, kwargs, result):
    h, w = _arg(args, kwargs, 0, "shape")
    counters["tiling.windows"] += len(result)
    counters["tiling.window_px"] += sum(win.height * win.width for win in result)
    counters["tiling.image_px"] += h * w


HOOKS = {
    "container.load_stack": _count_load,
    "container.save_stack": _count_save,
    "cli._sha256_file": _count_hash,
    "raster.gaussian_smooth": _count_blur,
    "aggregate.detect_mitosis": _count_mitosis,
    "tiling.iterate_tiles": _count_windows,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counters: dict[str, int] = defaultdict(int)
        self.active = True
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict:
        """Self seconds, call counts and counters keyed by span name, plus the spans."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += (end - start - child) / 1e9
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "spans": list(self.spans),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def install() -> Tracer:
    """Wrap the measured modules' functions; returns the recording tracer."""
    tracer = Tracer()
    wrapped = {}  # original function -> wrapper
    for short in MEASURED:
        module = importlib.import_module(f"tmeseg.{short}")
        for attr, value in list(vars(module).items()):
            public = not attr.startswith("_") or attr in PRIVATE.get(short, ())
            if public and inspect.isfunction(value) and value.__module__ == module.__name__:
                wrapped[value] = tracer.wrap(f"{short}.{attr}", value)
    for short, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"tmeseg.{short}"), cls_name)
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(f"{short}.{cls_name}.{attr}", raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(f"{short}.{cls_name}.{attr}", raw))
    for name, module in list(sys.modules.items()):
        if name == "tmeseg" or name.startswith("tmeseg."):
            for attr, value in list(vars(module).items()):
                try:
                    replacement = wrapped.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if replacement is not None:
                    setattr(module, attr, replacement)
    return tracer
