"""Span recorder and exact-arithmetic call counter for the traced run.

Both work by replacing attributes for the duration of a ``with`` block and
restoring the originals afterwards, so the untraced passes run the program
exactly as shipped.

SpanRecorder wraps public library functions where they are looked up: the
module globals of ``iet3.audit`` and ``iet3.cli`` (which the audit, search
and CLI code call through), ``ThreeIet.code_orbit``, ``Rotation.code_orbit``
and ``Morphism.apply``, plus the ``iet3.words`` globals the benchmark calls
directly.  Each span records its id, its parent's id (kept on a stack), its
start and end, and a work count.  Spans stay in memory until ``dump``.

QfieldCounter counts calls into ``QuadraticNumber`` arithmetic, comparison,
printing and parsing.  It runs in its own pass so that its per-call cost
does not distort the span self-times.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

#: layer metric -> the span names it aggregates
SPAN_LAYERS = {
    "dynamics.iet_code_orbit": ("dynamics.ThreeIet.code_orbit",),
    "dynamics.rotation_code_orbit": ("dynamics.Rotation.code_orbit",),
    "words.complexity": ("words.complexity",),
    "words.balance": ("words.balance",),
    "words.height": ("words.height_f", "words.height_g"),
    "audit.certificate": ("audit.three_iet_certificate",),
    "audit.recover": ("audit.recover_parameters",),
    "audit.audit": ("audit.substitution_audit",),
    "audit.search": ("audit.search_substitutions",),
    "morphisms.fixed_point_prefix": ("morphisms.fixed_point_prefix",),
    "morphisms.apply": ("morphisms.Morphism.apply",),
    "morphisms.spectral": ("morphisms.spectral_class",),
    "stepline.svg": ("stepline.stepped_line_svg",),
    "cli.main": ("cli.main",),
}

QFIELD_OPS = ("add", "sub", "mul", "div", "cmp", "str", "parse")


def _first_arg_length(args, kwargs, result) -> int:
    return len(args[0])


def _result_length(args, kwargs, result) -> int:
    return len(result)


#: span name -> work count taken from (args, kwargs, result)
WORK = {
    "dynamics.ThreeIet.code_orbit": _result_length,
    "dynamics.Rotation.code_orbit": _result_length,
    "words.complexity": _first_arg_length,
    "words.height_f": _first_arg_length,
    "words.height_g": _first_arg_length,
    "morphisms.fixed_point_prefix": _result_length,
    "morphisms.Morphism.apply": _result_length,
    "stepline.stepped_line_svg": _result_length,
}


class _Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class SpanRecorder:
    """Records one span per wrapped call while active."""

    def __init__(self):
        # (span id, parent id, name, start, end, work)
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._patches = _Patches()
        self._wrappers: dict = {}

    def _wrap(self, fn, name: str):
        key = (id(fn), name)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            count = work(args, kwargs, result) if work else 0
            spans.append((span_id, parent, name, start, end, count))
            return result

        traced.__wrapped__ = fn
        self._wrappers[key] = traced
        return traced

    def __enter__(self):
        import iet3.audit
        import iet3.cli
        import iet3.words
        from iet3.dynamics import Rotation, ThreeIet
        from iet3.morphisms import Morphism

        for module in (iet3.audit, iet3.cli, iet3.words):
            for name, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not name.startswith("_")
                    and getattr(value, "__module__", "").startswith("iet3.")
                    # exact-number helpers are counted, not spanned: they run
                    # millions of times and a span each would swamp the trace
                    and value.__module__ != "iet3.qfield"
                ):
                    layer = value.__module__.split(".", 1)[1]
                    self._patches.set(
                        module, name, self._wrap(value, f"{layer}.{value.__name__}")
                    )
        for cls, layer in ((ThreeIet, "dynamics"), (Rotation, "dynamics")):
            self._patches.set(
                cls,
                "code_orbit",
                self._wrap(cls.code_orbit, f"{layer}.{cls.__name__}.code_orbit"),
            )
        apply = self._wrap(Morphism.apply, "morphisms.Morphism.apply")
        self._patches.set(Morphism, "apply", apply)
        # __call__ is a class-level alias bound before patching
        self._patches.set(Morphism, "__call__", apply)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total self seconds and total work."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end, _work in self.spans:
            child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
        for sid, _parent, name, start, end, work in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
            entry["work"] += work
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, work in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "work": work,
                        }
                    )
                    + "\n"
                )


class QfieldCounter:
    """Counts QuadraticNumber operations while active."""

    def __init__(self):
        self.counts = dict.fromkeys(QFIELD_OPS, 0)
        self._patches = _Patches()

    def _counting(self, fn, op: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[op] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        import sys

        from iet3 import qfield

        cls = qfield.QuadraticNumber
        # __rsub__ and __rtruediv__ delegate to __sub__ and __truediv__, so
        # each operation is counted once
        for name, op in (
            ("__add__", "add"),
            ("__radd__", "add"),
            ("__sub__", "sub"),
            ("__mul__", "mul"),
            ("__rmul__", "mul"),
            ("__truediv__", "div"),
            ("__lt__", "cmp"),
            ("__le__", "cmp"),
            ("__gt__", "cmp"),
            ("__ge__", "cmp"),
            ("__eq__", "cmp"),
            ("__str__", "str"),
        ):
            self._patches.set(cls, name, self._counting(cls.__dict__[name], op))
        original = qfield.parse_quadratic
        counted_parse = self._counting(original, "parse")
        for module_name, module in list(sys.modules.items()):
            if (
                module_name == "iet3" or module_name.startswith("iet3.")
            ) and module.__dict__.get("parse_quadratic") is original:
                self._patches.set(module, "parse_quadratic", counted_parse)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False
