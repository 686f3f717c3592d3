"""Run BLAS on one thread for the length of a ``with`` block.

posgen's matrices are at most about 100x100.  numpy loads its own OpenBLAS
(and scipy another, in a process that imports it), and at these sizes a
pool's worker threads cost more than they save: they wake for every product
or factorization and spin against the calling thread.
``single_blas_thread`` pins every OpenBLAS loaded in the process to one
thread and restores the saved counts on exit.  A thread count is
process-wide state, so entries are reference-counted: the first entry saves
and pins, the last exit restores, and nested or concurrent blocks restore
exactly once.  Where no OpenBLAS can be found (no ``/proc``, or another
BLAS) the block changes nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager

# thread-count entry points of the 64-bit and 32-bit scipy-openblas builds
# that numpy and scipy wheels bundle, and of a plain OpenBLAS, in that order
_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads",
)

_lock = threading.Lock()
_pools = None  # (get, set) pairs, looked up once on first entry
_depth = 0
_saved = []


def _find_pools() -> list:
    """Thread-count getter and setter of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    mapped = {f[5].strip() for f in fields if len(f) == 6}
    pools = []
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SYMBOLS:
            try:
                get = getattr(lib, symbol.format("get"))
                set_ = getattr(lib, symbol.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
            break
    return pools


@contextmanager
def single_blas_thread():
    """Pin every loaded OpenBLAS to one thread; restore the counts on exit."""
    global _pools, _depth, _saved
    with _lock:
        if _depth == 0:
            if _pools is None:
                _pools = _find_pools()
            _saved = [get() for get, _ in _pools]
            for _, set_ in _pools:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_), count in zip(_pools, _saved):
                    set_(count)
