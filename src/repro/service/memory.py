"""Process memory: give freed C heap back, and read what is resident.

CPython and NumPy allocate through the C library's ``malloc``.  glibc
keeps the pages of freed chunks that sit below live ones, so a one-off
build (a fit) leaves its working set resident after it is freed.
:func:`release_heap` calls glibc's ``malloc_trim(0)`` (see
``malloc_trim(3)``), which returns every free page of every arena to the
kernel.  It is meant for the points where a one-off build has ended and
serving will not reuse the memory it freed: the CLI's startup fit and a
registry fit-on-miss.  A refresh is not such a point: the next refresh
reuses its working set, and trimming it makes that refresh fault the
pages back in (see the *Memory* section of ``docs/OPERATIONS.md``).

:func:`resident_bytes` reads the resident and peak resident set sizes
from ``/proc/self/status`` for the ``/metrics`` gauges.
"""

import ctypes
import functools

__all__ = ["release_heap", "resident_bytes"]


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim``, or ``None`` where it has none
    (macOS, musl, Windows).  Resolved once per process."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    trim = getattr(libc, "malloc_trim", None)
    if trim is None:
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_heap():
    """Return the C heap's free pages to the kernel (``malloc_trim(0)``).

    Returns ``True`` when memory was released; a silent no-op returning
    ``False`` where the C library has no ``malloc_trim``.
    """
    trim = _malloc_trim()
    return trim is not None and bool(trim(0))


def resident_bytes(status="/proc/self/status"):
    """``(VmRSS, VmHWM)`` of this process in bytes, or ``None`` where
    *status* is missing or lacks either field."""
    fields = {}
    try:
        with open(status, encoding="ascii") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    fields[key] = int(value.split()[0]) * 1024  # kB
    except OSError:
        return None
    if len(fields) < 2:
        return None
    return fields["VmRSS"], fields["VmHWM"]
