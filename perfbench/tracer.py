"""Outside-in tracing of barnesg's layers.

The tracer wraps module-level functions of the library from outside: each
target function is replaced in *every* barnesg module namespace that binds
it (``log_gamma`` lives in both ``special`` and ``expansion``,
``integrate_panels`` in ``quadrature``, ``oracle`` and ``terminant``, the
package re-exports the public names), and methods are patched on their
class.  No library file is changed; leaving the context restores every
binding.

A *span* target records (id, parent id, layer, start ns, end ns) for each
call and accumulates its self time (duration minus the time covered by its
child spans).  Several functions may share one layer; a call counts towards
``<layer>.calls`` only when its parent span is in another layer, so
recursion and helpers inside a layer count once.  A *count* target only
increments a counter on every call.  Scalar kernels called once per
quadrature node (``dilog`` inside ``_dilog_exp``) get no wrapper of their
own: a span or even a counter per node would dominate the trace, so their
time falls to the vectorised caller's span and their work is counted as
that caller's points.

Spans stay in memory and are written out at the end by :meth:`write`.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

MODULES = ("barnesg", "barnesg.special", "barnesg.bernoulli", "barnesg.quadrature",
           "barnesg.expansion", "barnesg.oracle", "barnesg.terminant", "barnesg.cli")


@dataclass(frozen=True)
class Target:
    layer: str          # metric prefix
    module: str         # defining module
    attr: str           # "name" or "Class.method"
    span: bool = True   # False: count calls only
    counts: Optional[Callable[[Callable], Callable]] = None  # fn -> (args, kwargs) -> {name: n}


def _panel_counts(fn):
    default_order = inspect.signature(fn).parameters["order"].default

    def counts(args, kwargs):
        breaks = args[1] if len(args) > 1 else kwargs["breakpoints"]
        order = args[2] if len(args) > 2 else kwargs.get("order", default_order)
        panels = len(breaks) - 1
        return {"quadrature.panels": panels, "quadrature.integrand_points": panels * order}
    return counts


def _poly_points(fn):
    return lambda args, kwargs: {"bernoulli.poly_periodic.points": len(args[2])}


def _dilog_points(fn):
    return lambda args, kwargs: {"special.dilog.points": len(args[0])}


def _recurrence_steps(fn):
    return lambda args, kwargs: {"terminant.recurrence_steps": args[0] - 1}


TARGETS = (
    # routes
    Target("expansion.certified_eval", "barnesg.expansion", "certified_eval"),
    Target("oracle.log_barnes_oracle", "barnesg.oracle", "log_barnes_oracle"),
    Target("oracle.remainder_wide", "barnesg.oracle", "remainder_wide"),
    Target("oracle.remainder_narrow", "barnesg.oracle", "remainder_narrow"),
    Target("terminant.exp_improved_report", "barnesg.terminant", "exp_improved_report"),
    Target("terminant.stokes_profile", "barnesg.terminant", "stokes_profile"),
    # mid layer
    Target("expansion.best_bound", "barnesg.expansion", "best_bound"),
    Target("expansion.solve_optimal_angle", "barnesg.expansion", "solve_optimal_angle"),
    Target("terminant._scaled_recurrence", "barnesg.terminant", "_scaled_recurrence",
           counts=_recurrence_steps),
    Target("terminant._algebraic_sum", "barnesg.terminant", "_algebraic_sum"),
    Target("terminant._zeta_tail", "barnesg.terminant", "_zeta_tail"),
    Target("quadrature.integrate_panels", "barnesg.quadrature", "integrate_panels",
           counts=_panel_counts),
    # scalar kernels
    Target("special.log_gamma", "barnesg.special", "log_gamma"),
    Target("special.dilog", "barnesg.special", "_dilog_exp", counts=_dilog_points),
    Target("special.e1", "barnesg.special", "exp_integral_e1"),
    Target("special.e1", "barnesg.special", "_e1_continued"),
    Target("special.e1", "barnesg.special", "_e1_scaled_continued"),
    Target("special.e1", "barnesg.special", "_ein"),
    Target("special.e1", "barnesg.special", "_e1_lentz_scaled"),
    Target("special.e1.lentz", "barnesg.special", "_e1_lentz_scaled", span=False),
    Target("special.erf_small", "barnesg.special", "erf_small"),
    Target("bernoulli.poly_periodic", "barnesg.bernoulli", "BernoulliTable.poly_periodic",
           counts=_poly_points),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS if t.span))
COUNTERS = ("special.dilog.points", "special.e1.lentz", "quadrature.panels",
            "quadrature.integrand_points", "bernoulli.poly_periodic.points",
            "terminant.recurrence_steps")

_ROOT = -1  # layer index of the pseudo-span around untraced code


class Tracer:
    """Context manager that patches the targets and records spans while active."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int, int]] = []
        # frames: [span id, layer index, child ns]
        self._stack: list[list[int]] = [[-1, _ROOT, 0]]
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans, times and counts recorded so far."""
        self.spans.clear()
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn: Callable, layer: int, counts) -> Callable:
        stack, spans, tracer = self._stack, self.spans, self

        def traced(*args, **kwargs):
            parent = stack[-1]
            outer = parent[1] != layer
            if outer:
                tracer.calls[layer] += 1
                if counts is not None:
                    for name, n in counts(args, kwargs).items():
                        tracer.counters[name] += n
            frame = [len(spans), layer, 0]
            spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                tracer.self_ns[layer] += dur - frame[2]
                parent[2] += dur
                spans[frame[0]] = (frame[0], parent[0], layer, start, end)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            tracer.counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            self._patch_all()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _patch_all(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        current: dict[tuple[str, str], Callable] = {}
        for t in TARGETS:
            owner = importlib.import_module(t.module)
            cls_name, _, name = t.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            key = (t.module, t.attr)
            original = current.get(key, inspect.getattr_static(owner, name))
            if t.span:
                wrapper = self._span_wrapper(original, LAYERS.index(t.layer),
                                             t.counts(original) if t.counts else None)
            else:
                wrapper = self._count_wrapper(original, t.layer)
            current[key] = wrapper
            if cls_name:
                self._replace(owner, name, original, wrapper)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._replace(mod, attr, original, wrapper)

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, busy_ns: float, scale: float = 1.0) -> dict[str, float]:
        """calls, self_s and self_frac per layer, plus the counters.

        busy_ns is the traced wall time; scale multiplies the recorded span
        times (the calibration factor of the pass).
        """
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            self_ns = self.self_ns[i] * scale
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.self_s"] = self_ns * 1e-9
            out[f"{layer}.self_frac"] = self_ns / busy_ns if busy_ns else 0.0
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated id, parent, layer, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tlayer\tstart_ns\tend_ns\n")
            for sid, parent, layer, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{LAYERS[layer]}\t{start}\t{end}\n")
