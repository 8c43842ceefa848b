"""scipy's compiled LAPACK and DOPRI5 routines, loaded without scipy's
packages.

The package calls four compiled routines of scipy: ``dstebz``, ``dgtsv``
and ``dsbevd`` of its LAPACK wrapper ``scipy.linalg._flapack``, and
``dopri5`` of ``scipy.integrate._dop``.  Importing them through
``scipy.linalg`` and ``scipy.integrate`` runs those packages' ``__init__``
modules, which pull in ``scipy.special``, ``scipy.optimize``,
``scipy.sparse.linalg`` and ``numpy.f2py``: about 0.5 s of a fresh
process, against a few milliseconds for the two extension modules
themselves.  So this module finds scipy's install directory with
``importlib.util.find_spec``, which imports nothing, and loads the two
extension files by path, leaving ``sys.modules`` as it was.

The module names and call signatures used here are private to scipy.  At
load, the first docstring line of each routine must equal the signature
pinned below, which is that of the supported scipy releases (``SUPPORTED``);
otherwise the import fails with ImportError.  ``tests/test_scipy_pins.py``
compares every routine with its public scipy wrapper on the same inputs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

__all__ = ["SUPPORTED", "dgtsv", "dopri5", "dsbevd", "dstebz"]

SUPPORTED = "scipy 1.17.x"

# (scipy subpackage, extension module) -> {routine: first docstring line}
_SIGNATURES = {
    ("linalg", "_flapack"): {
        "dstebz": "m,w,iblock,isplit,info = dstebz(d,e,range,vl,vu,il,iu,tol,order)",
        "dgtsv": "du2,d,du,x,info = dgtsv(dl,d,du,b,[overwrite_dl,overwrite_d,"
                 "overwrite_du,overwrite_b])",
        "dsbevd": "w,z,info = dsbevd(ab,[compute_v,lower,ldab,liwork,overwrite_ab])",
    },
    ("integrate", "_dop"): {
        "dopri5": "x,y,iwork,idid = dopri5(fcn,x,y,xend,rtol,atol,solout,iout,"
                  "work,iwork,nsteps,verbosity,[fcn_extra_args])",
    },
}


def _load(subpackage: str, name: str):
    """The extension module scipy/<subpackage>/<name> with its pinned
    routines checked, loaded from its file."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"henon_morse needs {SUPPORTED}; scipy is not installed")
    directory = Path(spec.submodule_search_locations[0], subpackage)
    paths = [directory / (name + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"henon_morse needs {SUPPORTED}; no compiled "
                          f"{name} in {directory}")
    fullname = f"scipy.{subpackage}.{name}"
    entry = sys.modules.get(fullname)
    module_spec = importlib.util.spec_from_file_location(fullname, path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    # an f2py extension enters itself in sys.modules when it is created;
    # leave there what was there before
    if entry is None:
        sys.modules.pop(fullname, None)
    else:
        sys.modules[fullname] = entry
    for routine, signature in _SIGNATURES[subpackage, name].items():
        doc = getattr(getattr(module, routine, None), "__doc__", None) or ""
        if doc.lstrip().partition("\n")[0] != signature:
            raise ImportError(
                f"henon_morse needs {SUPPORTED}: scipy.{subpackage}.{name}."
                f"{routine} does not have the signature {signature!r}")
    return module


_flapack = _load("linalg", "_flapack")
dstebz = _flapack.dstebz
dgtsv = _flapack.dgtsv
dsbevd = _flapack.dsbevd
dopri5 = _load("integrate", "_dop").dopri5
del _flapack
