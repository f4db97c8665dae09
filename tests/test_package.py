"""The package's public surface: its exports and the names the benchmark binds."""

import ast
import importlib.util
import re
from pathlib import Path

import whirly_lab

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_export_resolves():
    missing = [name for name in whirly_lab.__all__ if not hasattr(whirly_lab, name)]
    assert missing == []
    assert len(set(whirly_lab.__all__)) == len(whirly_lab.__all__)
    namespace: dict = {}
    exec("from whirly_lab import *", namespace)
    assert set(whirly_lab.__all__) <= set(namespace)


def test_benchmark_tracer_reaches_every_binding():
    # The benchmark's tracer looks up functions and methods by name, so a
    # deleted name (RngStream.substream, BorelSet.indicator_at, ...) breaks
    # it; the benchmark's own tests sit outside this suite.
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = whirly_lab.tree.sample_levels
    tr = tracing.Tracer()
    try:
        tr.install()
        assert tr.unwrapped_bindings() == []
    finally:
        tr.uninstall()
    assert whirly_lab.tree.sample_levels is original


def test_no_module_reads_the_environment():
    # Standard output depends on the command line alone, so no module
    # reads the environment.
    package = Path(whirly_lab.__file__).parent
    reading = [path.name for path in sorted(package.glob("*.py")) if re.search(r"\bos\.(environ|getenv)\b", path.read_text())]
    assert reading == []


def test_reports_leave_through_one_strict_writer():
    # Every report is written by one json.dumps call, and that call refuses
    # NaN and the infinities.
    package = Path(whirly_lab.__file__).parent
    calls = [
        node
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
    ]
    assert len(calls) == 1
    assert [ast.unparse(k) for k in calls[0].keywords if k.arg == "allow_nan"] == ["allow_nan=False"]
