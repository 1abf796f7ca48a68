"""Face super-resolution with language-vision priors."""

import os as _os
import sys as _sys

# Cap numeric worker threads before numpy first loads its BLAS; single
# threaded by default so results are reproducible run to run.
_threads = _os.environ.get("LVFSR_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)


def _cap_loaded_openblas() -> None:
    """Apply the cap to numpy's bundled OpenBLAS when numpy loaded first.

    OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads, so after an
    earlier `import numpy` the live count is set through the scipy-openblas
    entry point instead. Does nothing where that library is absent.
    """
    numpy = _sys.modules.get("numpy")
    try:
        count = int(_os.environ["OPENBLAS_NUM_THREADS"])
    except ValueError:
        return
    if numpy is None or count < 1:
        return
    import ctypes
    import glob
    pattern = _os.path.join(_os.path.dirname(numpy.__file__), _os.pardir,
                            "numpy.libs", "libscipy_openblas*.so*")
    for path in sorted(glob.glob(pattern)):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(count)
            return


_cap_loaded_openblas()

__version__ = "0.1.0"
