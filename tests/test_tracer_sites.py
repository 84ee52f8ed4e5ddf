"""The benchmark tracer's lookup sites resolve against this package.

bench/tracer.py wraps rhflow functions by the names its callers look them
up under; a rename or removal here would otherwise show only in the bench
suite.  The tracer module is imported read-only, by path.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rhflow

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracer  # its dataclasses look their module up there
_spec.loader.exec_module(tracer)


def test_the_package_is_this_source_tree():
    assert Path(rhflow.__file__).resolve().parent == ROOT / "src" / "rhflow"


@pytest.mark.parametrize("module, path, name", tracer.SITES,
                         ids=[f"{m.split('.')[-1]}:{p}" for m, p, _ in tracer.SITES])
def test_every_traced_name_resolves(module, path, name):
    owner, attr, fn = tracer._resolve(module, path)
    assert callable(fn) and getattr(owner, attr) is fn


def test_the_tracer_builds_with_its_side_charge_lookup():
    # Tracer() resolves every site and stokes_series.ordered_side_charges
    t = tracer.Tracer()
    assert t._ordered_side_charges is importlib.import_module(
        "rhflow.stokes_series").ordered_side_charges
