"""Span tracing of tsal from outside its source.

``Tracer.install`` wraps every public function of the six tsal modules at
its defining module and rebinds each by-name import of it (for example
``tsal.model.conv2d_forward``) to that same wrapper, so every call opens
exactly one span. Module aliases such as ``tsal.cli.Mo`` are the module
objects themselves and are left alone.

Each span records name, start, end, parent span, thread and run id; spans
stay in memory until the run writes them out. Work that
``ThreadPoolExecutor`` runs on a pool thread takes the span that was open
in the submitting thread as its parent.

A few functions also record extras from their arguments or result (the
kernel size and computed FLOPs of a convolution, bytes of a file). If a
function's signature no longer fits, its span keeps ``extra`` unset
instead of failing the run; a function that has vanished is not in
``names``.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

MODULES = ("tensor", "model", "train", "metrics", "data", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _conv_extra(factor: int):
    """Kernel size and computed FLOPs of one stride-1 convolution call.

    A multiply-add counts as 2 FLOPs. Forward is one GEMM (factor 2);
    backward is the weight-gradient and column-gradient GEMMs (factor 4).
    Bias adds, padding, im2col and col2im moves are not counted.
    """

    def extra(args: dict, result) -> dict:
        x, params = args["input"], args["params"]
        out_ch, in_ch, k, _ = params.weights.shape
        pixels = x.data.shape[2] * x.data.shape[3]
        flop = factor * x.data.shape[0] * out_ch * in_ch * k * k * pixels
        return {"k": int(k), "flop": int(flop)}

    return extra


def _file_bytes(arg: str):
    def extra(args: dict, result) -> dict:
        return {"bytes": os.path.getsize(args[arg])}

    return extra


def _clip_extra(args: dict, result) -> dict:
    return {"fired": bool(float(result) > float(args["max_norm"]))}


def _skip_extra(args: dict, result) -> dict:
    return {
        "skipped_no_fixations": int(result.skipped_no_fixations),
        "skipped_no_gt_mass": int(result.skipped_no_gt_mass),
    }


EXTRAS = {
    "tensor.conv2d_forward": _conv_extra(2),
    "tensor.conv2d_backward": _conv_extra(4),
    "data.load_map": _file_bytes("path"),
    "data.write_map": _file_bytes("path"),
    "train.save_checkpoint": _file_bytes("path"),
    "train.clip_gradients": _clip_extra,
    "metrics.evaluate_video": _skip_extra,
}


class Tracer:
    """In-memory span recorder; one per process and run id."""

    def __init__(self, run: str = "run") -> None:
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.names: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def wrap(self, name: str, fn):
        if getattr(fn, "_perfbench_span", None):
            raise RuntimeError(f"{name} is already traced")
        sig = inspect.signature(fn)
        extra_fn = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, threading.get_ident(), self.run)
                self.spans.append(span)
            if extra_fn is not None:
                try:
                    span.extra = extra_fn(sig.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError, ValueError, OSError):
                    pass
            return result

        wrapper._perfbench_span = name
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the tsal modules' public functions and adopt pool threads."""
        wrappers = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"tsal.{short}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                self.names.add(f"{short}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tsal" or mod_name.startswith("tsal.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

        submit = concurrent.futures.ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = self.current()

            def adopted(*a, **k):
                self._local.adopted = parent
                try:
                    return fn(*a, **k)
                finally:
                    self._local.adopted = None

            return submit(pool, adopted, *args, **kwargs)

        self._patch(concurrent.futures.ThreadPoolExecutor, "submit", traced_submit)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


# ---------------------------------------------------------------------------
# reductions over one traced stage invocation


def busy(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def calls(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(spans: list[Span], name: str) -> float:
    """Summed duration of ``name`` spans minus the time their children cover.

    Children on other threads overlap each other; their union is taken,
    clipped to the parent span, so self time never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, [])
            if min(b, s.end) > max(a, s.start)
        ]
        total += s.duration - _covered(clipped)
    return total
