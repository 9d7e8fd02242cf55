"""Spans at msumma's layer boundaries, recorded from outside the library.

`install` wraps the public entry points of each layer and rebinds every
name that other msumma modules imported with ``from .x import y``, so a
call through ``analysis.diagonal_pade`` is counted like one through
``pade.diagonal_pade``.  Nothing inside the library changes; `uninstall`
restores the originals.

Each wrapped call is a span: name, start, end, parent span and op id.  A
span's self time is its duration minus the time its child spans cover, so
time spent in unwrapped helpers (``solver._denormalize``,
``analysis.fitted_growth_order``) is charged to the nearest wrapped caller.
The leaf layers (``scaled``, ``moments``, ``_kernels``, Horner evaluation
and Pade evaluation) run hundreds of thousands of times per op; their spans
are folded into per-op call counts and self times instead of being stored
one by one, which keeps a traced run's memory flat.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# Bytes read plus bytes written per element of a scaled array (complex128
# mantissa + int64 exponent = 24 bytes), computed from the kernel signature.
SCALED_BYTES = 24
KERNEL_BYTES_PER_ELEM = {
    "normalize": 2 * SCALED_BYTES,
    "add": 3 * SCALED_BYTES,
    "mul": 3 * SCALED_BYTES,
    "scale": 2 * SCALED_BYTES,
    "axpy_shift": 3 * SCALED_BYTES,
    "eval_scaled": 1 * SCALED_BYTES,
}
SCALED_OPS = ("__init__", "from_complex", "from_log10", "zero", "__add__",
              "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__")


class Tracer:
    """Span recorder.  One instance per traced process; not thread-safe."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent_id, op_id, self_s)
        self.stack = []  # open frames: [child_s, span_id, name, extra]
        self.agg = defaultdict(float)  # per-op counters and self times
        self.op_id = None
        self._next = 0

    def _open(self, name):
        self._next += 1
        frame = [0.0, self._next, name, []]
        self.stack.append(frame)
        return frame

    def _close(self, frame, start, end, layer):
        self.stack.pop()
        dur = end - start
        self_s = dur - frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += dur
        self.spans.append((frame[1], frame[2], start, end,
                           parent[1] if parent else None, self.op_id, self_s))
        agg = self.agg
        agg[frame[2] + ".calls"] += 1
        agg[frame[2] + ".self_s"] += self_s
        agg[layer + ".self_s"] += self_s

    def begin_op(self, op_id):
        """Open the root span of one op; returns a token for `end_op`."""
        self.op_id = op_id
        self.agg = defaultdict(float)
        return self._open("op"), clock()

    def end_op(self, token) -> dict:
        """Close the op's root span and return its per-op metrics."""
        frame, start = token
        end = clock()
        self._close(frame, start, end, "harness")
        out = dict(self.agg)
        out["op_s"] = end - start
        self.op_id = None
        return out

    def enclosing(self, name):
        for frame in reversed(self.stack):
            if frame[2] == name:
                return frame
        return None

    def write_spans(self, path):
        """Append the recorded spans to `path` as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "self_s": self_s}) + "\n")


def _span_wrapper(tracer, fn, name, layer, hook):
    def wrapper(*args, **kwargs):
        frame = tracer._open(name)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._close(frame, start, clock(), layer)
        if hook is not None:
            hook(tracer, args, kwargs, result, frame)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _leaf_wrapper(tracer, fn, name, layer, extra_calls, hook):
    stack = tracer.stack
    calls_key, self_key, layer_key = (name + ".calls", name + ".self_s",
                                      layer + ".self_s")

    def wrapper(*args, **kwargs):
        frame = [0.0, None, name, None]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            agg = tracer.agg
            self_s = dur - frame[0]
            agg[calls_key] += 1
            agg[self_key] += self_s
            agg[layer_key] += self_s
            if extra_calls:
                agg[extra_calls] += 1
        if hook is not None:
            hook(tracer, args, kwargs, result, frame)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


# -- per-call counters ------------------------------------------------------

def _diagonal_pade_hook(tracer, args, kwargs, result, frame):
    m_req = args[1] if len(args) > 1 else kwargs["M"]
    m_got = result.order[1]
    agg = tracer.agg
    agg["pade.order_requested"] += m_req
    agg["pade.order_achieved"] += m_got
    agg["pade.stepdowns"] += m_req - m_got
    sp = tracer.enclosing("pade.stable_poles")
    if sp is not None:
        sp[3].append(tuple(result.order))


def _stable_poles_hook(tracer, args, kwargs, result, frame):
    # the three "consecutive" orders ended at one (L, M): the pole's
    # stability was checked against itself
    orders = frame[3]
    if len(orders) == 3 and len(set(orders)) == 1:
        tracer.agg["pade.collapsed_triples"] += 1


def _solve_hook(tracer, args, kwargs, result, frame):
    tracer.agg["solver.cells_out"] += result.mant.size


def _dumps_hook(tracer, args, kwargs, result, frame):
    tracer.agg["series.dumps_bytes"] += len(result)


def _quad_hook(tracer, args, kwargs, result, frame):
    tracer.agg["quadrature.panels"] += result.panels


def _kernel_hook(fn_name):
    elems_key = f"kernels.{fn_name}.elems"
    bytes_key = f"kernels.{fn_name}.bytes"
    per_elem = KERNEL_BYTES_PER_ELEM[fn_name]

    def hook(tracer, args, kwargs, result, frame):
        n = len(args[0])
        tracer.agg[elems_key] += n
        tracer.agg[bytes_key] += n * per_elem

    return hook


# -- installation -----------------------------------------------------------

# (module, function, span name, layer, counter hook); module-level functions
# recorded as stored spans.
SPAN_FUNCTIONS = (
    ("msumma.dsl", "parse_problem", "dsl.parse_problem", "dsl", None),
    ("msumma.solver", "solve_constant_leading",
     "solver.solve_constant_leading", "solver", _solve_hook),
    ("msumma.analysis", "estimate_gevrey", "analysis.estimate_gevrey",
     "analysis", None),
    ("msumma.analysis", "borel_singularities", "analysis.borel_singularities",
     "analysis", None),
    ("msumma.analysis", "summability_verdict", "analysis.summability_verdict",
     "analysis", None),
    ("msumma.pade", "diagonal_pade", "pade.diagonal_pade", "pade",
     _diagonal_pade_hook),
    ("msumma.pade", "stable_poles", "pade.stable_poles", "pade",
     _stable_poles_hook),
    ("msumma.operators", "borel", "operators.borel", "operators", None),
    ("msumma.resummation", "laplace_resum", "resummation.laplace_resum",
     "resummation", None),
    ("msumma.quadrature", "integrate_segment", "quadrature.integrate_segment",
     "quadrature", _quad_hook),
)

# (module, class, method, span name, layer, counter hook)
SPAN_METHODS = (
    ("msumma.dsl", "ProblemFile", "to_problem", "dsl.to_problem", "dsl", None),
    ("msumma.series", "BiSeries", "dumps", "series.dumps", "series",
     _dumps_hook),
)

# (module, class, method, span name, layer); folded leaf spans
LEAF_METHODS = (
    ("msumma.pade", "PadeApproximant", "__call__", "pade.eval", "pade"),
    ("msumma.series", "RamifiedSeries", "eval_scaled", "series.eval",
     "series"),
    ("msumma.moments", "MomentFunction", "log_eval", "moments.log_eval",
     "moments"),
    ("msumma.moments", "MomentFunction", "eval_scaled", "moments.eval_scaled",
     "moments"),
) + tuple(("msumma.scaled", "ScaledComplex", m, f"scaled.{m.strip('_')}",
           "scaled") for m in SCALED_OPS)

KERNEL_FUNCTIONS = tuple(KERNEL_BYTES_PER_ELEM)


def _rebind(fn, wrapper, undo):
    """Point every msumma module attribute bound to `fn` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "msumma"
                               or modname.startswith("msumma.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))


def _patch_method(cls, meth, wrapper_of, undo):
    raw = cls.__dict__[meth]
    is_static = isinstance(raw, staticmethod)
    fn = raw.__func__ if is_static else raw
    w = wrapper_of(fn)
    setattr(cls, meth, staticmethod(w) if is_static else w)
    undo.append((cls, meth, raw))


def install(tracer: Tracer):
    """Wrap every layer boundary; returns the undo list for `uninstall`."""
    import msumma  # noqa: F401  (loads every submodule being patched)
    import msumma._kernels as kernels

    undo = []
    for modname, fname, name, layer, hook in SPAN_FUNCTIONS:
        fn = getattr(importlib.import_module(modname), fname)
        _rebind(fn, _span_wrapper(tracer, fn, name, layer, hook), undo)

    for modname, cname, meth, name, layer, hook in SPAN_METHODS:
        cls = getattr(importlib.import_module(modname), cname)
        _patch_method(cls, meth,
                      lambda fn, n=name, ly=layer, h=hook:
                      _span_wrapper(tracer, fn, n, ly, h), undo)

    for modname, cname, meth, name, layer in LEAF_METHODS:
        cls = getattr(importlib.import_module(modname), cname)
        extra = "scaled.ops" if layer == "scaled" else None
        _patch_method(cls, meth,
                      lambda fn, n=name, ly=layer, e=extra:
                      _leaf_wrapper(tracer, fn, n, ly, e, None), undo)

    for fname in KERNEL_FUNCTIONS:
        fn = getattr(kernels, fname)
        _rebind(fn, _leaf_wrapper(tracer, fn, f"kernels.{fname}", "kernels",
                                  None, _kernel_hook(fname)), undo)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
