"""The benchmark's per-layer spans still bind to combgen's names.

`perfbench/spans.py` wraps functions of combgen by name and stops a
benchmark run when one has gone or changed kind.  Binding them here
makes such a rename fail the unit tests at once.
"""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_benchmark_span_hooks_bind(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    spans.check_hooks()
