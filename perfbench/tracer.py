"""Outside-in tracer for the treeharmonics benchmark.

The tracer wraps the package's public layer functions from the outside and
leaves the package source untouched.  A name that another module bound at
import time (``engine`` does ``from .tree import opnorm_lower``, and so on)
is replaced in *every* namespace that holds it, and ``TreeBall`` methods are
replaced on the class; patching only the defining module would leave the
spans empty.  Each call records one span ``(name, start, end, parent, op)``
in memory; spans of one benchmark op share the op id.

Counts are derived from the values the calls receive and return, never from
timing, so they repeat exactly for a given seed.  They are computed here, by
the benchmark, not reported by the program.
"""

import functools
import importlib
import math
import re
import sys
import time
from collections import Counter

PACKAGE = "treeharmonics"

#: Layer modules whose public functions are traced; span names are
#: ``<module>.<function>`` (``TreeBall`` methods are ``tree.<method>``).
TRACED = {
    "tree": ("opnorm_lower", "ball_geometry", "TreeBall.convolve", "TreeBall.adjacency_sum"),
    "zline": ("convolutor_upper", "convolutor_interval", "fourier_z", "hilbert_witness"),
    "engine": (
        "bounds_report",
        "tree_norm_upper",
        "tree_norm_lower",
        "symbol_norm_report",
        "line_profile",
        "transference_check",
    ),
    "abel": ("abel_forward", "abel_inverse"),
    "spherical": ("spherical_transform", "inverse_spherical_transform", "c_inverse_shifted"),
    "cli": ("main",),
}

#: Every public function defined in this module is traced under one span name.
SERIALIZE = "serialize"

LAYERS = ("tree", "zline", "engine", "abel", "spherical")

_POWER = re.compile(r"power\[(\d+)\]")
_GRID = re.compile(r"grid=(\d+)")


def _count_opnorm_lower(counts, args, kwargs, result):
    # (bound, method): the winning trial ``power[k]`` is the k-th ascent iterate
    match = _POWER.fullmatch(result[1])
    if match:
        counts["tree.ascent_iters"] += int(match.group(1))


def _count_adjacency_sum(counts, args, kwargs, result):
    counts["tree.adjacency_sum.vertices"] += args[0].size


def _count_ball_geometry(counts, args, kwargs, result):
    counts["tree.ball_geometry.vertices"] += result.size


def _count_convolutor_upper(counts, args, kwargs, result):
    match = _GRID.search(result[1])
    if match:
        counts["zline.line_sup.grid_points"] += int(match.group(1))


def _count_convolutor_interval(counts, args, kwargs, result):
    if result.lower_method.startswith("trial:power["):
        counts["zline.interval.power_wins"] += 1


def _count_line_profile(counts, args, kwargs, result):
    # line_profile(kernel, p, n=512, half_width=None): an n-point grid
    # evaluated at each of the 2L+1 returned profile entries
    n = args[2] if len(args) > 2 else kwargs.get("n", 512)
    counts["engine.line_profile.phase_entries"] += n * result.values.size


COUNTERS = {
    "tree.opnorm_lower": _count_opnorm_lower,
    "tree.adjacency_sum": _count_adjacency_sum,
    "tree.ball_geometry": _count_ball_geometry,
    "zline.convolutor_upper": _count_convolutor_upper,
    "zline.convolutor_interval": _count_convolutor_interval,
    "engine.line_profile": _count_line_profile,
}

#: Derived counts, all recorded by :data:`COUNTERS`.
COUNTED = (
    "tree.ascent_iters",
    "tree.adjacency_sum.vertices",
    "tree.ball_geometry.vertices",
    "zline.line_sup.grid_points",
    "zline.interval.power_wins",
    "engine.line_profile.phase_entries",
)


class Tracer:
    """Span recorder; inside its ``with`` block the layer functions are patched.

    Set :attr:`op` to the id of the current benchmark op before each op.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._restore = []

    def reset(self):
        """Drop recorded spans and counts."""
        self.spans = []
        self.counts = Counter()

    def __enter__(self):
        """Patch every traced name; the patches stay until the block ends."""
        if self._restore:
            raise RuntimeError("tracer is already active")
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in (*TRACED, SERIALIZE)
        }
        namespaces = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, names in TRACED.items():
            for attr in names:
                owner, _, fname = attr.rpartition(".")
                span = f"{layer}.{fname}"
                if owner:
                    cls = getattr(modules[layer], owner)
                    self._patch_class(cls, fname, span)
                else:
                    self._patch_everywhere(namespaces, getattr(modules[layer], fname), span)
        serialize = modules[SERIALIZE]
        for fname, fn in list(vars(serialize).items()):
            if (
                not fname.startswith("_")
                and callable(fn)
                and getattr(fn, "__module__", None) == serialize.__name__
                and not isinstance(fn, type)
            ):
                self._patch_everywhere(namespaces, fn, SERIALIZE)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []

    def _patch_class(self, cls, fname, span):
        original = cls.__dict__[fname]
        self._restore.append((cls, fname, original))
        setattr(cls, fname, self._wrap(original, span))

    def _patch_everywhere(self, namespaces, original, span):
        wrapped = self._wrap(original, span)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _wrap(self, fn, span):
        count = COUNTERS.get(span)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, tracer.op)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced


def layer_metrics(spans, counts, wall_s, scale=1.0):
    """Per-layer metrics of one traced pass.

    ``<span>.calls`` and ``<span>.self_s`` for every traced name (self time
    is span time minus the time of its child spans), ``.incl_s`` for the
    engine stages, the derived counts, and each layer's share of the
    pass's time ``wall_s``.  Span seconds are multiplied by ``scale``, the
    pass's host-speed factor, so they are in the units of ``wall_s``.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_s = Counter()
    incl_s = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start - child[i]) * scale
        incl_s[name] += (end - start) * scale
    metrics = {}
    for layer, names in TRACED.items():
        for attr in names:
            name = f"{layer}.{attr.rpartition('.')[2]}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
    for stage in ("tree_norm_upper", "tree_norm_lower", "symbol_norm_report"):
        metrics[f"engine.{stage}.incl_s"] = incl_s[f"engine.{stage}"]
    metrics[f"{SERIALIZE}.calls"] = calls[SERIALIZE]
    metrics[f"{SERIALIZE}.self_s"] = self_s[SERIALIZE]
    for name in sorted(COUNTED):
        metrics[name] = counts[name]
    for layer in LAYERS:
        share = math.fsum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = share / wall_s
    return metrics


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"
