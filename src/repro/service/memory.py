"""Process memory: one C heap, give its freed pages back, read what is resident.

CPython and NumPy allocate through the C library's ``malloc``.  glibc
gives each new thread that allocates an arena of its own (up to eight
per core), and each arena keeps the pages of its own freed chunks.  In
the daemon that means the follow thread and every HTTP handler thread
keep their own high-water of freed NumPy temporaries.
:func:`use_one_arena` calls glibc's ``mallopt(M_ARENA_MAX, 1)`` (see
``mallopt(3)``), so every thread allocates from the main heap and freed
memory is kept once, not once per thread.  The limit only governs
arenas created after the call, so the CLI makes it first thing in
``--serve``, before the startup fit, the follow thread and the HTTP
server start.

:func:`release_heap` calls glibc's ``malloc_trim(0)`` (see
``malloc_trim(3)``), which returns every free page of every arena to the
kernel.  It is meant for the one point where a one-off build has ended
and serving will not reuse the memory it freed: the end of the CLI's
startup fit.  A refresh is not such a point: the next refresh reuses
its working set, and trimming it makes that refresh fault the pages
back in (see the *Memory* section of ``docs/OPERATIONS.md``).

Both are silent no-ops returning ``False`` where the C library lacks
the function (macOS, musl, Windows).

:func:`resident_bytes` reads the resident and peak resident set sizes
from ``/proc/self/status`` for the ``/metrics`` gauges.
"""

import ctypes
import functools

__all__ = ["release_heap", "resident_bytes", "use_one_arena"]

#: ``mallopt`` parameter for the arena limit (glibc ``<malloc.h>``).
_M_ARENA_MAX = -8


@functools.cache
def _libc_function(name, *argtypes):
    """The C library's ``int``-returning function *name*, or ``None``
    where it has none.  Resolved once per process and name."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (OSError, TypeError, AttributeError):
        return None
    function.argtypes = list(argtypes)
    function.restype = ctypes.c_int
    return function


def use_one_arena():
    """Make every thread allocate from the main C heap
    (``mallopt(M_ARENA_MAX, 1)``).

    Call it before any other thread starts: a thread that already has an
    arena keeps it.  Returns ``True`` when glibc accepted the limit.
    """
    mallopt = _libc_function("mallopt", ctypes.c_int, ctypes.c_int)
    return mallopt is not None and bool(mallopt(_M_ARENA_MAX, 1))


def release_heap():
    """Return the C heap's free pages to the kernel (``malloc_trim(0)``).

    Returns ``True`` when memory was released.
    """
    trim = _libc_function("malloc_trim", ctypes.c_size_t)
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
