"""Measurement collection and plain-text reporting for experiments."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".charts": ("render_chart",),
    ".collect": ("Recorder", "Series"),
    ".registry": ("DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".report": ("render_comparison", "render_recorder", "render_table"),
})
