"""One OpenBLAS thread for the metric fit, so that its bits do not depend on the thread count.

OpenBLAS splits a large matrix product over its threads, and the split
product rounds differently. ``one_thread`` reaches numpy's bundled
``scipy-openblas64`` through ``ctypes``; with another BLAS, or without
its thread-count symbols, it does nothing.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import cache

import numpy as np


@cache
def _openblas():
    """The bundled OpenBLAS's (get, set) thread-count functions, or two that do nothing."""
    root = os.path.dirname(np.__file__)
    for folder in (os.path.join(root, os.pardir, "numpy.libs"), os.path.join(root, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(folder, "libscipy_openblas64_*"))):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return (lambda: 0), (lambda count: None)


@contextmanager
def one_thread():
    """Run the block at one OpenBLAS thread, then restore the caller's count."""
    get, set_ = _openblas()
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
