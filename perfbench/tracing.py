"""Span tracing of the iwarank layers, installed from outside the package.

Every public function of each package module, plus ``zp_modules._snf``
(which ``special_matrices`` imports across the module boundary), is
replaced by a wrapper that records a span: name, start, end, parent span
and op id.  Callers bind names with ``from .x import y``, so a wrapper is
installed under every name, in every module of the package, that holds
the original function.  Polynomial multiplication and division are
counted (not spanned) by patching the ``LambdaElement`` methods.

Spans stay in memory and are written out once, after the run.  Self time
of a span is its duration minus the durations of its children; the self
times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "lambda_ring",
    "cyclo_eval",
    "exactlinalg",
    "zp_modules",
    "kobayashi_rank",
    "special_matrices",
    "growth_model",
    "verify",
    "cli",
)

# private functions that are still layer boundaries
EXTRA = {"zp_modules": ("_snf",)}

NAME, START, END, PARENT, OP, INFO = range(6)


def _shape(fn_name, args, kwargs, result):
    """Extra data kept on a span, for the counters derived from it."""
    if fn_name == "zp_modules._snf":
        rows, e = args[0], args[2]
        nc = len(rows[0]) if rows else 0
        transform = bool(kwargs.get("want_left") or kwargs.get("want_right"))
        return (len(rows), nc, e, transform)
    if fn_name == "exactlinalg.bareiss_det":
        return len(args[0])
    if fn_name == "zp_modules.lambda_column_span":
        return len(result.columns)
    return None


SHAPED = {"zp_modules._snf", "exactlinalg.bareiss_det", "zp_modules.lambda_column_span"}


class Tracer:
    def __init__(self, package: str = "iwarank"):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts = {"poly_mul": 0, "poly_divmod": 0}
        self._patches: list[tuple[object, str, object]] = []
        # wrapper objects by id; holding them keeps their ids from being reused
        self._wrappers: dict[int, object] = {}

    # -- wrappers ------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        shaped = qualname in SHAPED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if shaped:
                span[INFO] = _shape(qualname, args, kwargs, result)
            return result

        return traced

    def _counting(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in EXTRA.get(layer, ()):
                    continue
                originals[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in self.modules():
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)
                    self._wrappers[id(wrapper)] = wrapper
        element = sys.modules[f"{self.package}.lambda_ring"].LambdaElement
        for attr, counter in (("__mul__", "poly_mul"), ("__rmul__", "poly_mul"),
                              ("divmod_monic", "poly_divmod")):
            original = element.__dict__[attr]
            self._patches.append((element, attr, original))
            wrapper = self._counting(original, counter)
            setattr(element, attr, wrapper)
            self._wrappers[id(wrapper)] = wrapper

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names in the package that still hold a wrapper (empty after a
        clean uninstall)."""
        left = []
        element = sys.modules[f"{self.package}.lambda_ring"].LambdaElement
        for mod in self.modules():
            for name, obj in vars(mod).items():
                if id(obj) in self._wrappers:
                    left.append(f"{mod.__name__}.{name}")
        for name, obj in vars(element).items():
            if id(obj) in self._wrappers:
                left.append(f"LambdaElement.{name}")
        return left

    # -- analysis ------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "info": s[INFO],
                }, separators=(",", ":")) + "\n")


def analyse(spans: list[list], offset: int) -> dict:
    """Self times per layer and per function, inclusive times per function,
    and a nesting check, for spans[i] whose global index is offset + i."""
    n = len(spans)
    child = [0.0] * n
    bad_nesting = 0
    for i, s in enumerate(spans):
        parent = s[PARENT] - offset
        if s[PARENT] >= 0:
            if not 0 <= parent < i:
                bad_nesting += 1
                continue
            ps = spans[parent]
            if s[START] < ps[START] or s[END] > ps[END]:
                bad_nesting += 1
            child[parent] += s[END] - s[START]
    layer_self: dict[str, float] = {}
    fn_self: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    roots = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        self_t = dur - child[i]
        name = s[NAME]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t
        fn_self[name] = fn_self.get(name, 0.0) + self_t
        fn_calls[name] = fn_calls.get(name, 0) + 1
        if s[PARENT] < 0:
            roots += dur
    # inclusive time counts only the outermost span of a name (or of a
    # layer), so that nested calls are not counted twice
    fn_incl: dict[str, float] = {}
    layer_incl: dict[str, float] = {}
    for s in spans:
        name = s[NAME]
        layer = name.split(".", 1)[0]
        nested_fn = nested_layer = False
        p = s[PARENT] - offset
        while p >= 0 and not nested_fn:
            ancestor = spans[p][NAME]
            nested_fn = ancestor == name
            nested_layer = nested_layer or ancestor.split(".", 1)[0] == layer
            p = spans[p][PARENT] - offset
        dur = s[END] - s[START]
        if not nested_fn:
            fn_incl[name] = fn_incl.get(name, 0.0) + dur
        if not nested_layer:
            layer_incl[layer] = layer_incl.get(layer, 0.0) + dur
    return {
        "layer_self": layer_self,
        "layer_incl": layer_incl,
        "fn_self": fn_self,
        "fn_incl": fn_incl,
        "fn_calls": fn_calls,
        "roots": roots,
        "bad_nesting": bad_nesting,
    }
