"""The LVFSR_THREADS cap holds whatever the import order."""

import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

import lvfsr

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


def _openblas_path():
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        if hasattr(lib, _GET) and hasattr(lib, _SET):
            return path
    return None


def test_thread_cap_holds_when_numpy_loads_first():
    path = _openblas_path()
    if path is None:
        pytest.skip("numpy's bundled scipy-openblas thread entry points are absent")
    env = {k: v for k, v in os.environ.items()
           if k not in ("LVFSR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(lvfsr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import numpy; import lvfsr; import ctypes; "
            f"get = getattr(ctypes.CDLL({path!r}), {_GET!r}); "
            "get.argtypes = []; get.restype = ctypes.c_int; print(get())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "1"
