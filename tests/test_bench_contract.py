"""The names the benchmark's tracer patches still exist in the library.

``perfbench/spans.py`` wraps library functions by name for its per-layer
span metrics and counts ``QuadraticNumber`` operations by patching dunders
and ``parse_quadratic``.  A span whose function was deleted or renamed
would silently read 0, and a missing dunder would crash the traced run
with a KeyError.  The module is executed from its source here, so nothing
is written under ``perfbench/``.
"""

import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


def test_every_span_layer_names_a_wrapped_function(spans):
    with spans.SpanRecorder() as recorder:
        wrapped = {name for _fn_id, name in recorder._wrappers}
    wanted = {name for names in spans.SPAN_LAYERS.values() for name in names}
    assert wanted - wrapped == set()


def test_the_counter_patches_every_operation_it_counts(spans):
    from iet3 import qfield

    original = dict(qfield.QuadraticNumber.__dict__)
    with spans.QfieldCounter() as counter:
        # entering looked up every patched dunder in QuadraticNumber.__dict__
        x = qfield.parse_quadratic("(-1+sqrt(5))/2")
        y = (1 + x) * x - x / 2
        str(y), y < 1, 2 * y
    assert all(counter.counts[op] > 0 for op in spans.QFIELD_OPS)
    assert dict(qfield.QuadraticNumber.__dict__) == original
