"""In-memory span tracing of sandbox3d's public functions, from outside.

The tracer wraps functions at their module-level bindings: every module of
the package that looked a function up with `from .x import f` holds its own
binding, and a wrapper only sees calls made through the binding it replaced.
`install` therefore replaces every binding of the original function object
across the loaded `sandbox3d` modules, plus class attributes for methods.

Each span keeps a name, start and end (perf_counter_ns), the id of the span
that caused it, a question id and the thread. Spans nest per thread; a span
opened on a thread with no open span is adopted by the innermost open span
flagged `adopt` (the eval call whose worker pool runs the question), so
self time can be charged across threads. Self time is a span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    qid: str | None
    thread: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[tuple[int, str | None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, qid=None, adopt=False, count=None):
        """Run fn(*args, **kwargs) inside a span; count(args, kwargs, result)
        returns attributes recorded on the span."""
        stack = self._stack()
        if stack:
            parent, parent_qid = stack[-1]
        elif self._adopters:
            parent, parent_qid = self._adopters[-1]
        else:
            parent, parent_qid = None, None
        qid = qid if qid is not None else parent_qid
        span_id = next(self._ids)
        stack.append((span_id, qid))
        if adopt:
            self._adopters.append((span_id, qid))
        result, done = None, False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if adopt:
                self._adopters.remove((span_id, qid))
            # A call that raised still gets its span, without work counts.
            attrs = count(args, kwargs, result) if done and count is not None else {}
            self.spans.append(
                Span(span_id, parent, name, start, end, qid, threading.get_ident(), attrs)
            )
        return result

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                f.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "qid": s.qid,
                            "thread": s.thread,
                            "attrs": s.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_ns(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {
        s.span_id: (s.end_ns - s.start_ns)
        - covered_ns(s.start_ns, s.end_ns, children.get(s.span_id, ()))
        for s in spans
    }


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self ms, and summed attributes."""
    selfs = self_times_ns(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[s.span_id] / 1e6
        for key, value in s.attrs.items():
            row[key] = row.get(key, 0) + value
    return out


# ── What to trace ──────────────────────────────────────────────────────────


def _qid_kwarg(args, kwargs):
    return kwargs.get("qid")


def _qid_of_record(args, kwargs):
    return args[1].qid  # SceneCache.providers_for(self, record, index)


def _points_in_out(args, kwargs, result):
    return {"points_in": sum(len(c) for c in args[0]), "points_kept": len(result)}


def _png_out(args, kwargs, result):
    return {"bytes_out": len(result)}


def _depth_out(args, kwargs, result):
    return {"bytes_out": int(np.asarray(args[1]).size) * 4}


@dataclass(frozen=True)
class Target:
    """One traced callable: `module:qualname` plus optional hooks."""

    ref: str
    count: object = None  # (args, kwargs, result) -> {name: number for name in attrs}
    attrs: tuple[str, ...] = ()
    qid: object = None  # (args, kwargs) -> question id or None
    adopt: bool = False

    @property
    def name(self) -> str:
        module, qualname = self.ref.split(":")
        return f"{module.rsplit('.', 1)[-1]}.{qualname}"


TARGETS = (
    Target("sandbox3d.synthetic_world:instance_depths"),
    Target("sandbox3d.synthetic_world:depth_from_stack"),
    Target("sandbox3d.synthetic_world:mask_from_stack"),
    Target("sandbox3d.synthetic_world:image_from_stack"),
    Target("sandbox3d.providers:SyntheticRig.stack"),
    Target("sandbox3d.providers:GeometryMockVlm.complete"),
    Target("sandbox3d.providers:HttpChatVlm.complete"),
    Target(
        "sandbox3d.proxy_elevation:fps_sample",
        count=lambda a, k, r: {"mask_px": int(np.count_nonzero(a[0].bits))},
        attrs=("mask_px",),
    ),
    Target("sandbox3d.proxy_elevation:erode_mask"),
    Target("sandbox3d.proxy_elevation:lift_proxies"),
    Target(
        "sandbox3d.voting_clustering:filter_by_consensus",
        count=_points_in_out,
        attrs=("points_in", "points_kept"),
    ),
    Target(
        "sandbox3d.voting_clustering:dbscan",
        count=lambda a, k, r: {"points": len(r)},
        attrs=("points",),
    ),
    Target("sandbox3d.voting_clustering:fit_obb"),
    Target(
        "sandbox3d.voting_clustering:build_sandbox",
        count=lambda a, k, r: {"boxes": len(r.boxes)},
        attrs=("boxes",),
    ),
    Target("sandbox3d.sandbox_render:render_boxes"),
    Target(
        "sandbox3d.sandbox_render:render_points",
        count=lambda a, k, r: {"points": len(a[0])},
        attrs=("points",),
    ),
    Target("sandbox3d.image_io:png_bytes", count=_png_out, attrs=("bytes_out",)),
    Target("sandbox3d.image_io:write_image"),
    Target("sandbox3d.image_io:write_depth_raw", count=_depth_out, attrs=("bytes_out",)),
    Target("sandbox3d.image_io:read_image"),
    Target("sandbox3d.bundle:load_bundle"),
    Target("sandbox3d.pipeline:run_eval", adopt=True),
    Target("sandbox3d.pipeline:SceneCache.providers_for", qid=_qid_of_record),
    Target("sandbox3d.pipeline:run_pipeline", qid=_qid_kwarg),
    Target("sandbox3d.pipeline:compose_prompt"),
    Target("sandbox3d.qa:read_benchmark"),
    Target("sandbox3d.qa:evaluate_question"),
    Target("sandbox3d.cli:main"),
    Target(
        "sandbox3d.scene_model:backproject_pixels",
        count=lambda a, k, r: {"points": len(r)},
        attrs=("points",),
    ),
    Target(
        "sandbox3d.trajectory_control:instantiate_trajectories",
        count=lambda a, k, r: {"views": sum(len(spec.poses) for spec in r)},
        attrs=("views",),
    ),
)


def _resolve(ref: str):
    module_name, qualname = ref.split(":")
    module = importlib.import_module(module_name)
    owner, attr = module, qualname
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None or not callable(original):
        raise LookupError(f"traced layer {ref} no longer exists")
    return owner, attr, original


class Patches:
    """Replaced bindings, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "sandbox3d" or name.startswith("sandbox3d."))
    ]


def install(tracer: Tracer, targets=TARGETS) -> Patches:
    """Wrap every binding of every target; raises LookupError for a target
    that no longer exists, so a stale trace cannot silently read zero."""
    resolved = [(t, *_resolve(t.ref)) for t in targets]
    patches = Patches()
    modules = _package_modules()
    for target, owner, attr, original in resolved:
        wrapper = _wrap(tracer, target, original)
        if isinstance(owner, type):
            patches.set(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.set(module, key, wrapper)
    return patches


def _wrap(tracer: Tracer, target: Target, original):
    name, count, qid_of, adopt = target.name, target.count, target.qid, target.adopt

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        qid = qid_of(args, kwargs) if qid_of is not None else None
        return tracer.call(name, original, args, kwargs, qid=qid, adopt=adopt, count=count)

    return wrapper
