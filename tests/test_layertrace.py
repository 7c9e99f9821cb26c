"""Every target of perfbench/layertrace.py names a connsum entry point.

The tracer wraps each target by name, so a renamed or moved entry point
would otherwise show only in a traced benchmark run.  A ``Class.meth``
path is read from the class's own ``__dict__``, as ``Tracer.install``
reads it; any other path is a module attribute."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
_SPEC = importlib.util.spec_from_file_location("layertrace", _PATH)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


@pytest.mark.parametrize("name, modname, path", layertrace.TARGETS,
                         ids=[f"{m}.{p}" for _, m, p in layertrace.TARGETS])
def test_target_resolves(name, modname, path):
    mod = importlib.import_module(f"connsum.{modname}")
    if "." in path:
        cls_name, meth = path.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, path, None))
