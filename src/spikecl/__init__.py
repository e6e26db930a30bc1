"""Continual learning for spiking networks, with a simulated neuromorphic
chip in the training loop.

Importing the package keeps freed heap memory mapped, process-wide and on
glibc only: it sets glibc's ``M_MMAP_THRESHOLD`` to 32 MiB and
``M_TRIM_THRESHOLD`` to 256 MiB through ``mallopt``. With glibc's defaults,
blocks of 128 KiB and more are mapped fresh from the kernel, and freeing one
raises the mmap threshold to its size and the trim threshold to twice that.
A BPTT step (320 KiB temporaries at batch 16) or an evaluation chunk (4 MB
activations) frees several such arrays at once, so the top of the heap
passes the trim threshold and free() hands the pages back: each call
page-faults its arrays in again. Both settings are needed, because setting
either one switches the dynamic thresholds off. A fixed mmap threshold alone
leaves the trim threshold at 128 KiB, and a trim threshold alone pins the
mmap threshold at 128 KiB; each alone faults more than the defaults.
``HEAP_KEPT_MAPPED`` says whether both settings took. Results do not depend
on the setting: it changes where blocks come from, not what is computed in
them.
"""

import ctypes

__version__ = "0.1.0"

# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_mapped() -> bool:
    """Set both thresholds, mmap first; stop at the first one refused.

    Where the C library has no ``mallopt`` nothing changes. ``mallopt``
    returns 1 on success; a refused mmap threshold leaves glibc's dynamic
    threshold as it was, so the trim threshold is only set after it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) != 1:
        return False
    return mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1


HEAP_KEPT_MAPPED = _keep_heap_mapped()
