"""`import connsum` holds scipy's bundled OpenBLAS at one thread and
leaves numpy's pool alone; each test runs in a fresh interpreter, since
the hold lasts for the whole process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import connsum

SRC = str(Path(connsum.__file__).resolve().parents[1])


def run_python(code: str, **env) -> str:
    """stdout of code in a fresh interpreter that imports connsum from
    this tree, with env added to the environment."""
    full = {**os.environ, **env,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=full, check=True,
                         capture_output=True, text=True, timeout=300)
    return out.stdout.strip()


# the thread counts of both bundled pools before and after `import
# connsum`, or null where scipy's library or its symbols are missing
POOLS = """
import ctypes, json, pathlib
import numpy, scipy
site = pathlib.Path(scipy.__file__).parent.parent
libs = {name: sorted(site.glob(pattern)) for name, pattern in (
    ("scipy", "scipy.libs/libscipy_openblas*.so"),
    ("numpy", "numpy.libs/libscipy_openblas64_*.so"))}
try:
    get_scipy = ctypes.CDLL(
        str(libs["scipy"][0])).scipy_openblas_get_num_threads
    get_numpy = ctypes.CDLL(
        str(libs["numpy"][0])).scipy_openblas_get_num_threads64_
except (IndexError, AttributeError):
    print("null")
else:
    before = [get_scipy(), get_numpy()]
    import connsum
    print(json.dumps({"before": before, "after": [get_scipy(), get_numpy()]}))
"""


def test_import_holds_scipy_pool_at_one_thread():
    pools = json.loads(run_python(POOLS, OPENBLAS_NUM_THREADS="2"))
    if pools is None:
        pytest.skip("no bundled scipy OpenBLAS with its thread symbols")
    scipy_after, numpy_after = pools["after"]
    assert scipy_after == 1
    assert numpy_after == pools["before"][1]


def test_import_without_the_symbol_changes_nothing():
    # a library that does not export the setter (a system or MKL build)
    code = ("import ctypes\n"
            "ctypes.CDLL = lambda *args, **kwargs: object()\n"
            "import connsum\n"
            "print(connsum.__version__)")
    assert run_python(code) == connsum.__version__


def test_k0_selection_does_not_depend_on_thread_count():
    # the sigma_min of `connsum resolvent` at its defaults, all of whose
    # dense LU work runs in scipy's pool
    code = ("import json\n"
            "from connsum import bvp, model as md, parametrix as px\n"
            "m = md.build_model()\n"
            "par = px.Parametrix(m, q=3, kbar=1.0,\n"
            "                    system=bvp.GluedSystem(m, 0.0))\n"
            "k0, sig = par.choose_k0([1e-4, 1e-3, 1e-2, 0.05])\n"
            "print(json.dumps([k0, {k: s.hex() for k, s in sig.items()}]))")
    one, two = (json.loads(run_python(code, OPENBLAS_NUM_THREADS=n))
                for n in ("1", "2"))
    assert one == two


def test_resolvent_apply_does_not_depend_on_thread_count():
    # R(k) v solves with one LU factorization in scipy's pool; G(k)'s
    # products in numpy's pool read the same bits at either count
    code = ("import hashlib, json, math\n"
            "from connsum import bvp, model as md, parametrix as px\n"
            "m = md.build_model()\n"
            "par = px.Parametrix(m, q=3, kbar=1.0,\n"
            "                    system=bvp.GluedSystem(m, 0.0))\n"
            "v = par.v_minus\n"
            "print(json.dumps([hashlib.sha256(\n"
            "    par.resolvent_apply(k, v).tobytes()).hexdigest()\n"
            "    for k in (1e-3, math.exp(-256.0))]))")
    one, two = (json.loads(run_python(code, OPENBLAS_NUM_THREADS=n))
                for n in ("1", "2"))
    assert one == two
