"""The benchmark's tracer wraps package names from outside; they must exist.

Loads perfbench/tracer.py by path without installing it, so a rename or
deletion that would break traced benchmark runs fails here in about a second.
"""

import importlib
import importlib.util
from pathlib import Path

from dunklcalc import transform, verify
from dunklcalc.operators import DunklContext
from dunklcalc.roots import build_root_system

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    targets = [t for group in tracer.LAYERS.values() for t in group]
    for modname, path in targets:
        owner, attr = tracer._resolve(importlib.import_module(f"dunklcalc.{modname}"), path)
        assert callable(getattr(owner, attr, None)), f"{modname}.{path}"
    assert len(targets) >= 38
    ctx = DunklContext(build_root_system("z2:d=1", ["1"]))
    for span, table in tracer.MEMO_TABLES.items():
        assert span in tracer.LAYERS
        assert isinstance(getattr(ctx, table), dict), table
    assert isinstance(transform._SPHERE_MEAN_CACHE, dict)


def test_suite_registry_matches_tracer():
    """The tracer names every suite, in registry order, by the registered function."""
    tracer = _load_tracer()
    assert tuple(verify.SUITES) == tracer.SUITES
    for name, fn in verify.SUITES.items():
        assert getattr(verify, name.replace("-", "_") + "_suite") is fn, name
        runs = verify.default_runs(name)
        if name == "transforms":
            assert runs is verify.TRANSFORM_DEFAULT_RUNS
        elif name == "pizzetti":
            assert runs is verify.PIZZETTI_DEFAULT_RUNS
        else:
            assert runs is verify.EXACT_DEFAULT_RUNS
