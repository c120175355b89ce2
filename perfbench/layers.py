"""Per-layer metrics reduced from the spans of one traced stage invocation.

Each metric names the traced functions it needs. When one of them has
vanished from tsal, or a span the metric reads has no extras because the
function's signature changed, the metric is reported as absent (value 0)
rather than failing the run. ``trace.overhead_ratio`` and
``trace.call_count_mismatches`` are computed over a whole run in
``run.py``; ``data.generate_synthetic.busy_s`` comes from the traced
set-ups.
"""

from __future__ import annotations

from tracer import Span, busy, calls, self_time

ACTIVATIONS = tuple(
    f"tensor.{name}"
    for name in ("sigmoid", "sigmoid_backward", "tanh_act", "tanh_backward", "relu", "relu_backward")
)
METRIC_FNS = tuple(f"metrics.{name}" for name in ("auc_judd", "shuffled_auc", "nss", "cc", "sim"))

# units; GFLOP is computed from tensor shapes, not counted by hardware
COUNT, SECONDS, RATIO, BYTES, GFLOP = "count", "s", "ratio", "B", "GFLOP_computed"


def _with_extras(spans: list[Span], name: str) -> list[Span] | None:
    """The ``name`` spans, or None when any of them has no extras."""
    found = [s for s in spans if s.name == name]
    return None if any(s.extra is None for s in found) else found


def _extra_sum(spans: list[Span], name: str, key: str) -> float | None:
    found = _with_extras(spans, name)
    return None if found is None else sum(s.extra[key] for s in found)


def _conv(fn: str, k: int):
    base, needs = f"{fn}.k{k}", (fn,)

    def over(value):
        def metric(spans: list[Span], wall: float) -> float | None:
            found = _with_extras(spans, fn)
            return None if found is None else value([s for s in found if s.extra["k"] == k])

        return metric

    return [
        (f"{base}.calls", COUNT, needs, over(len)),
        (f"{base}.busy_s", SECONDS, needs, over(lambda m: sum(s.duration for s in m))),
        (f"{base}.gflop", GFLOP, needs, over(lambda m: sum(s.extra["flop"] for s in m) / 1e9)),
    ]


def _calls(fn: str, metric: str | None = None):
    return (metric or f"{fn}.calls", COUNT, (fn,), lambda sp, w: calls(sp, fn))


def _busy(fn: str):
    return (f"{fn}.busy_s", SECONDS, (fn,), lambda sp, w: busy(sp, fn))


def _calls_busy(fn: str):
    return [_calls(fn), _busy(fn)]


def _self(fn: str, metric: str | None = None):
    return (metric or f"{fn}.self_s", SECONDS, (fn,), lambda sp, w: self_time(sp, fn))


def _bytes(fn: str):
    return (f"{fn}.bytes", BYTES, (fn,), lambda sp, w: _extra_sum(sp, fn, "bytes"))


def _fired_ratio(spans: list[Span], wall: float) -> float | None:
    steps = calls(spans, "train.clip_gradients")
    fired = _extra_sum(spans, "train.clip_gradients", "fired")
    return None if fired is None else fired / steps if steps else 0.0


# (name, unit, traced functions it needs, value from (spans, stage wall),
# None when a span it reads has no extras)
STAGE_METRICS = [
    *[m for d in ("forward", "backward") for k in (3, 1) for m in _conv(f"tensor.conv2d_{d}", k)],
    ("tensor.activations.busy_s", SECONDS, ("tensor.sigmoid", "tensor.tanh_act"),
     lambda sp, w: sum(busy(sp, fn) for fn in ACTIVATIONS)),
    _self("model.forward_sequence"),
    _self("model.backward_sequence"),
    _calls("model.convlstm_step"),
    _self("model.convlstm_step"),
    _calls("train.sgd_step", "train.steps"),
    _busy("train.bce_loss"),
    _busy("train.clip_gradients"),
    ("train.clip_gradients.fired_ratio", RATIO, ("train.clip_gradients",), _fired_ratio),
    _busy("train.sgd_step"),
    _busy("train.save_checkpoint"),
    _bytes("train.save_checkpoint"),
    *[m for fn in METRIC_FNS for m in _calls_busy(fn)],
    _self("metrics.evaluate_video"),
    ("metrics.busy_over_wall", RATIO, METRIC_FNS,
     lambda sp, w: sum(busy(sp, fn) for fn in METRIC_FNS) / w),
    ("metrics.skipped_no_fixations", COUNT, ("metrics.evaluate_video",),
     lambda sp, w: _extra_sum(sp, "metrics.evaluate_video", "skipped_no_fixations")),
    ("metrics.skipped_no_gt_mass", COUNT, ("metrics.evaluate_video",),
     lambda sp, w: _extra_sum(sp, "metrics.evaluate_video", "skipped_no_gt_mass")),
    *_calls_busy("data.load_map"),
    _bytes("data.load_map"),
    *_calls_busy("data.write_map"),
    _bytes("data.write_map"),
    _busy("data.load_fixations"),
    _busy("data.resize_bilinear"),
    _self("data.load_video"),
    *[_self(f"cli.cmd_{stage}", f"cli.{stage}.self_s") for stage in ("train", "predict", "evaluate")],
]  # fmt: skip

SETUP_METRIC = _busy("data.generate_synthetic")
RUN_METRICS = [
    ("trace.overhead_ratio", RATIO),
    ("trace.call_count_mismatches", COUNT),
]


def units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {name: unit for name, unit, _, _ in STAGE_METRICS}
    out[SETUP_METRIC[0]] = SETUP_METRIC[1]
    out.update(RUN_METRICS)
    return out


def reduce(
    metrics, spans: list[Span], wall: float, names: set[str]
) -> tuple[dict[str, float], list[str]]:
    """Values of ``metrics`` over one invocation, and the names left absent."""
    values, missing = {}, []
    for name, _, needs, fn in metrics:
        value = fn(spans, wall) if all(need in names for need in needs) else None
        if value is None:
            values[name] = 0.0
            missing.append(name)
        else:
            values[name] = float(value)
    return values, missing
