"""Budget-constrained polyline compression (online SQUISH-style).

Fixed-threshold simplifiers (:func:`repro.geo.simplify.rdp_simplify`,
:func:`repro.geo.simplify.vw_simplify`) answer "drop everything below
error epsilon" -- the right tool when the caller knows an error bound but
not a size.  Serving and streaming ingest face the opposite constraint:
a hard *point budget* (response size, per-vessel buffer memory) with no
good epsilon known up front.  :class:`BudgetCompressor` inverts the
contract: ingest points one at a time, never retain more than
``max_points`` between pushes, and report the error you achieved instead
of the error you asked for.

The algorithm is SQUISH-E's budgeted half (Muckell et al.): a min-heap
over synchronized-Euclidean-distance (SED) contributions of interior
points on a doubly-linked vertex list.  When the buffer exceeds the
budget, the cheapest interior point is dropped and its priority is
*added* to both surviving neighbours' accumulated error before they are
re-scored.  That additive accumulation is what makes the reported error
sound: dropping ``m`` between ``u`` and ``v`` displaces the synchronized
position of any previously dropped point covered by ``(u, m)`` or
``(m, v)`` by at most ``SED(m; u, v)`` (the sync-map difference between
the old and new chords is affine in the sync parameter per piece, so it
is maximised at a piece endpoint), hence every dropped point's true SED
against the *final* polyline stays bounded by the accumulated error of a
surviving neighbour.  ``max_sed_m`` is the max of those accumulators --
an upper bound, never an undercount.

SED itself is the classic Trajcevski/Potamias error measure: the
distance from a dropped point to its time-interpolated position on the
chord between the surviving neighbours.  Without timestamps the ingest
index serves as the sync parameter, which degrades gracefully to
evenly-parameterised interpolation.

:func:`compress_to_budget` is the offline twin for batch paths: it runs
the same online pass (kept indices are identical by construction -- the
property suite pins this), then replaces the online error *bounds* with
the exactly recomputed SED of every dropped point against the output.

:func:`compress_rendered_path` is the served-path compressor behind
``/impute max_points``.  A rendered path is a few RDP turn points plus a
uniform resample lying on the lines between them, so it first drops
every on-chord point (RDP's own pre-pass, :func:`off_chord_mask`) and
runs SQUISH-E only over the surviving turn points, and only when they
still exceed the budget.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from repro.geo.simplify import off_chord_mask

__all__ = [
    "BudgetCompressor",
    "BudgetResult",
    "compress_rendered_path",
    "compress_to_budget",
]


def _check_max_points(max_points):
    if isinstance(max_points, bool) or not isinstance(max_points, int):
        raise TypeError(f"max_points must be an int, got {max_points!r}")
    if max_points < 2:
        raise ValueError(f"max_points must be >= 2, got {max_points}")


@dataclass(frozen=True)
class BudgetResult:
    """Outcome of a budget compression pass.

    ``indices`` index the *pushed sequence* (strictly increasing; always
    includes the first and last pushed point).  ``max_sed_m`` and
    ``mean_sed_m`` are sound upper bounds on the SED of dropped points
    when produced by the online compressor, and exact recomputed values
    when produced by :func:`compress_to_budget` or
    :func:`compress_rendered_path`.
    """

    indices: np.ndarray
    points_in: int
    points_out: int
    max_sed_m: float
    mean_sed_m: float

    @property
    def points_dropped(self):
        return self.points_in - self.points_out


class BudgetCompressor:
    """Online polyline compressor under a hard point budget.

    Push points one at a time with :meth:`push`; between pushes the
    buffer never holds more than *max_points* of them.  :meth:`result`
    is a merge-free streaming finalize: it snapshots the current kept
    subsequence without disturbing the buffer, so a live ingest loop can
    keep pushing afterwards.

    >>> comp = BudgetCompressor(max_points=3)
    >>> for i, (px, py) in enumerate([(0, 0), (1, 50), (2, 0), (3, 60), (4, 0)]):
    ...     comp.push(px, py)
    >>> res = comp.result()
    >>> (res.points_in, res.points_out)
    (5, 3)
    """

    def __init__(self, max_points):
        _check_max_points(max_points)
        self.max_points = max_points
        self._count = 0  # points pushed so far; also the next ingest index
        self._head = None
        self._tail = None
        # Buffered points, keyed by ingest index.  Dicts keep memory
        # proportional to the live buffer (evicted keys are deleted),
        # unlike the dense arrays vw_simplify can afford offline.
        self._x = {}
        self._y = {}
        self._t = {}
        self._prev = {}
        self._next = {}
        self._err = {}  # accumulated SED bound per buffered point
        self._version = {}
        self._heap = []  # lazy entries: (priority, ingest index, version)
        self._dropped = 0
        self._dropped_sed_sum = 0.0

    def __len__(self):
        return len(self._x)

    def _sed(self, idx):
        """SED of buffered interior point *idx* against its neighbours' chord."""
        u = self._prev[idx]
        v = self._next[idx]
        span = self._t[v] - self._t[u]
        if span > 0.0:
            frac = (self._t[idx] - self._t[u]) / span
            frac = 0.0 if frac < 0.0 else (1.0 if frac > 1.0 else frac)
        else:
            frac = 0.5
        sx = self._x[u] + frac * (self._x[v] - self._x[u])
        sy = self._y[u] + frac * (self._y[v] - self._y[u])
        dx = self._x[idx] - sx
        dy = self._y[idx] - sy
        return (dx * dx + dy * dy) ** 0.5

    def _score(self, idx):
        """(Re-)score an interior point and push a fresh heap entry."""
        self._version[idx] += 1
        priority = self._err[idx] + self._sed(idx)
        heapq.heappush(self._heap, (priority, idx, self._version[idx]))

    def push(self, x, y, t=None):
        """Ingest one point; evict the cheapest interior point if over budget."""
        idx = self._count
        self._count += 1
        self._x[idx] = float(x)
        self._y[idx] = float(y)
        self._t[idx] = float(idx) if t is None else float(t)
        self._prev[idx] = self._tail
        self._next[idx] = None
        self._err[idx] = 0.0
        self._version[idx] = 0
        if self._head is None:
            self._head = idx
        else:
            self._next[self._tail] = idx
        old_tail = self._tail
        self._tail = idx
        # The previous tail just became interior: it gains a priority.
        if old_tail is not None and self._prev[old_tail] is not None:
            self._score(old_tail)
        if len(self._x) > self.max_points:
            self._evict()

    def _evict(self):
        while True:
            priority, idx, version = heapq.heappop(self._heap)
            if idx in self._version and version == self._version[idx]:
                break
        u = self._prev[idx]
        v = self._next[idx]
        self._next[u] = v
        self._prev[v] = u
        for table in (
            self._x,
            self._y,
            self._t,
            self._prev,
            self._next,
            self._err,
            self._version,
        ):
            del table[idx]
        # Additive error accumulation (SQUISH-E): the evicted point's
        # priority already bounds the SED of everything it was covering;
        # handing it to both neighbours keeps the invariant that every
        # dropped point's true SED is bounded by a survivor's accumulator.
        self._err[u] += priority
        self._err[v] += priority
        self._dropped += 1
        self._dropped_sed_sum += priority
        if self._prev[u] is not None:
            self._score(u)
        if self._next[v] is not None:
            self._score(v)

    def result(self):
        """Snapshot the kept subsequence; the buffer stays live for more pushes."""
        indices = np.empty(len(self._x), dtype=np.int64)
        idx = self._head
        pos = 0
        while idx is not None:
            indices[pos] = idx
            pos += 1
            idx = self._next[idx]
        if self._dropped:
            max_sed = max(self._err.values())
            mean_sed = self._dropped_sed_sum / self._dropped
        else:
            max_sed = 0.0
            mean_sed = 0.0
        return BudgetResult(
            indices=indices,
            points_in=self._count,
            points_out=len(indices),
            max_sed_m=float(max_sed),
            mean_sed_m=float(mean_sed),
        )


def _exact_dropped_sed(x, y, t, kept):
    """Exact SED of every dropped point against the kept polyline."""
    n = len(x)
    mask = np.zeros(n, dtype=bool)
    mask[kept] = True
    dropped = np.flatnonzero(~mask)
    if len(dropped) == 0:
        return np.empty(0, dtype=np.float64)
    # Each dropped point lies strictly between two consecutive kept
    # indices; searchsorted finds its covering chord.
    seg = np.searchsorted(kept, dropped) - 1
    u = kept[seg]
    v = kept[seg + 1]
    span = t[v] - t[u]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(span > 0.0, (t[dropped] - t[u]) / np.where(span > 0.0, span, 1.0), 0.5)
    frac = np.clip(frac, 0.0, 1.0)
    sx = x[u] + frac * (x[v] - x[u])
    sy = y[u] + frac * (y[v] - y[u])
    return np.hypot(x[dropped] - sx, y[dropped] - sy)


def _as_xy(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    return x, y


def compress_to_budget(x, y, max_points, t=None):
    """Offline twin of :class:`BudgetCompressor` for batch polylines.

    Runs the same online pass point by point (the kept subsequence is
    identical to streaming ingest by construction), then replaces the
    online error *bounds* with the exact SED of each dropped point
    recomputed against the output polyline.
    """
    x, y = _as_xy(x, y)
    if t is not None:
        t = np.asarray(t, dtype=np.float64)
        if t.shape != x.shape:
            raise ValueError("t must match x/y in length")
    comp = BudgetCompressor(max_points)
    for i in range(len(x)):
        comp.push(x[i], y[i], None if t is None else t[i])
    res = comp.result()
    if res.points_dropped == 0:
        return res
    sync = np.arange(len(x), dtype=np.float64) if t is None else t
    sed = _exact_dropped_sed(x, y, sync, res.indices)
    return BudgetResult(
        indices=res.indices,
        points_in=res.points_in,
        points_out=res.points_out,
        max_sed_m=float(sed.max()),
        mean_sed_m=float(sed.mean()),
    )


def compress_rendered_path(x, y, max_points):
    """Budget a rendered path: drop on-chord points, then SQUISH-E the turns.

    Interior points on their neighbours' chord (:func:`off_chord_mask`)
    go first, at zero cost to the shape.  Only when the surviving turn
    points still exceed *max_points* does :func:`compress_to_budget`
    rank them, synchronised by their original indices.  The output is a
    strictly increasing subsequence of the input that keeps both
    endpoints and has at most *max_points* points -- often fewer, since
    zero-error points are never kept to fill the budget.  ``max_sed_m``
    and ``mean_sed_m`` are the exact index-synchronised SED of *every*
    dropped input point against the output polyline.
    """
    x, y = _as_xy(x, y)
    _check_max_points(max_points)
    n = len(x)
    if n <= max_points:
        return BudgetResult(
            indices=np.arange(n),
            points_in=n,
            points_out=n,
            max_sed_m=0.0,
            mean_sed_m=0.0,
        )
    kept = np.flatnonzero(off_chord_mask(x, y))
    if len(kept) > max_points:
        kept = kept[compress_to_budget(x[kept], y[kept], max_points, t=kept).indices]
    sed = _exact_dropped_sed(x, y, np.arange(n, dtype=np.float64), kept)
    return BudgetResult(
        indices=kept,
        points_in=n,
        points_out=len(kept),
        max_sed_m=float(sed.max()),
        mean_sed_m=float(sed.mean()),
    )
