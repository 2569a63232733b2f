"""The benchmark's tracer finds every span it times in the library.

``perfbench/tracer.py`` skips a target it cannot resolve, and a span none of
whose targets resolves is listed under ``missing``, so a renamed or moved
function would silently drop a span from the traced benchmark runs.  This
test loads the tracer without changing it.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span", sorted({target[0] for target in tracer.TARGETS}))
def test_tracer_span_resolves(span):
    # a span may be looked up in more than one namespace; as in
    # ``tracer.install``, one target that resolves is enough
    targets = [(module, path) for name, module, path, _ in tracer.TARGETS if name == span]
    assert any(tracer._resolve(module, path) for module, path in targets), targets
