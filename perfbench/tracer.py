"""Outside-in span recorder for the dnt benchmark.

The recorder wraps public functions of the dnt layers from outside the
package: nothing under src/ knows it is being traced. Each call of a
wrapped function becomes one span (name, start, end, parent, run id),
kept in compact in-memory arrays until the run dumps them as JSON. The
run id of a span is the index of its outermost ancestor, so every span
caused by one top-level call shares it. Self time is a span's duration
minus the durations of its direct children.

Wrapping a function object is not enough on its own, because other
modules hold their own references to it:

- names copied by ``from .x import y`` (``dnt.power.train``,
  ``dnt.engine.rasterize``, ``dnt.imagesim.rasterize``, the package's
  re-exports) are rebound by scanning every loaded ``dnt`` module;
- ``dnt.classical.statistic_fn`` returns entries of its ``_BY_NAME``
  table, which are rebound by hand;
- ``SeedScheme.stream``, ``SimilarityReference.statistic`` and
  ``MethodBank.decide`` are class attributes, replaced on the class.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "sampling",
    "qq",
    "features",
    "classical",
    "imagesim",
    "lmnn",
    "engine",
    "power",
    "cli",
)

STATISTICS = ("KS", "AD", "JB", "GLB", "GG", "BS")

# span name -> (module, attribute); a dotted attribute names a class attribute.
TARGETS = {
    "sampling.sample": ("dnt.sampling", "sample"),
    "sampling.stream": ("dnt.sampling", "SeedScheme.stream"),
    "qq.qq_points": ("dnt.qq", "qq_points"),
    "qq.rasterize": ("dnt.qq", "rasterize"),
    "features.extract_raw": ("dnt.features", "extract_raw"),
    "features.extract_image": ("dnt.features", "extract_image"),
    "features.fit_selection": ("dnt.features", "fit_selection"),
    **{
        f"classical.{name}": ("dnt.classical", f"{name.lower()}_statistic")
        for name in STATISTICS
    },
    "imagesim.statistic": ("dnt.imagesim", "SimilarityReference.statistic"),
    "lmnn.build_triplets": ("dnt.lmnn", "build_triplets"),
    "lmnn.train_metric": ("dnt.lmnn", "train_metric"),
    "engine.train": ("dnt.engine", "train"),
    "engine.calibrate_cutoff": ("dnt.engine", "calibrate_cutoff"),
    "engine.dnt_test": ("dnt.engine", "dnt_test"),
    "engine.save_model": ("dnt.engine", "save_model"),
    "engine.load_model": ("dnt.engine", "load_model"),
    "power.build_methods": ("dnt.power", "build_methods"),
    "power.run_power_study": ("dnt.power", "run_power_study"),
    "power.decide": ("dnt.power", "MethodBank.decide"),
    "cli.entrypoint": ("dnt.cli", "entrypoint"),
}

# Which wrapped functions each workload must call, and which layers it
# must never reach. Together the "must" sets cover every target, so a
# missed rebinding shows up as a missing span instead of a silent zero.
MUST_CALL = {
    "desk_raw": (
        "sampling.sample",
        "sampling.stream",
        "features.extract_raw",
        "features.fit_selection",
        "lmnn.build_triplets",
        "lmnn.train_metric",
        "engine.train",
        "engine.save_model",
        "engine.load_model",
        "engine.dnt_test",
        "cli.entrypoint",
    ),
    "calibrate_classical": (
        "sampling.sample",
        "sampling.stream",
        "engine.calibrate_cutoff",
        *(f"classical.{name}" for name in STATISTICS),
    ),
    "power_image": (
        "sampling.sample",
        "sampling.stream",
        "qq.qq_points",
        "qq.rasterize",
        "features.extract_image",
        "features.fit_selection",
        *(f"classical.{name}" for name in STATISTICS),
        "imagesim.statistic",
        "lmnn.build_triplets",
        "lmnn.train_metric",
        "engine.train",
        "engine.calibrate_cutoff",
        "engine.dnt_test",
        "power.build_methods",
        "power.run_power_study",
        "power.decide",
    ),
}
MUST_NOT_REACH = {
    "desk_raw": ("classical", "qq", "imagesim", "power"),
    "calibrate_classical": ("lmnn", "qq", "imagesim", "features", "power", "cli"),
    "power_image": ("cli",),
}


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, current value) for a TARGETS entry."""
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans of wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.failed: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._raster_inputs: set[bytes] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call of fn.

        after(args, kwargs, result) runs inside the span, for counters
        that must be read where the work happens.
        """
        nid = self._intern(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.run.append(self.run[parent] if parent >= 0 else idx)
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            except BaseException:
                self.failed[layer] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return wrapper

    # -- counters read at the layer boundary ---------------------------------

    def _count_triplets(self, args, kwargs, result) -> None:
        self.counts["lmnn.triplets"] += int(result.triplets.shape[0])
        self.counts["lmnn.pairs"] += int(result.pairs.shape[0])

    def _record_model_size(self, args, kwargs, result) -> None:
        path = kwargs["path"] if "path" in kwargs else args[1]
        self.counts["engine.model_bytes"] = os.path.getsize(path)

    def _record_raster_input(self, args, kwargs, result) -> None:
        points = kwargs["points"] if "points" in kwargs else args[0]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(points.theoretical.tobytes())
        digest.update(points.empirical.tobytes())
        self._raster_inputs.add(digest.digest())

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every reference to it."""
        hooks = {
            "lmnn.build_triplets": self._count_triplets,
            "engine.save_model": self._record_model_size,
            "qq.rasterize": self._record_raster_input,
        }
        resolved = {span: _resolve(*where) for span, where in TARGETS.items()}
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "dnt" or name.startswith("dnt."))
        ]
        for span, (owner, name, original) in resolved.items():
            wrapped = self.wrap(span, original, hooks.get(span))
            self._rebind(owner, name, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)
            table = getattr(owner, "_BY_NAME", {})
            for key, value in table.items():
                if value is original:
                    self._restore.append((table, key, value))
                    table[key] = wrapped

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every original reference back, newest first."""
        for owner, name, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def layer_table(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        if not self.start:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        own = duration - children
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=duration, minlength=size)
        self_s = np.bincount(names, weights=own, minlength=size)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def raster_unique_ratio(self) -> float:
        calls = self.layer_table().get("qq.rasterize", (0, 0.0, 0.0))[0]
        return len(self._raster_inputs) / calls if calls else 0.0

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, column-wise, with the run's metadata."""
        payload = {
            "meta": meta,
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def matrix_violations(workload: str, table: dict) -> list[str]:
    """Layer x workload expectations that the recorded spans break."""
    problems = [
        f"{span} recorded no span on {workload}"
        for span in MUST_CALL[workload]
        if span not in table
    ]
    problems += [
        f"{span} reached on {workload}"
        for span in table
        if span.split(".", 1)[0] in MUST_NOT_REACH[workload]
    ]
    return problems
