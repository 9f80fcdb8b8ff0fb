"""Minimal GeoJSON writers (no external dependencies).

Builders return plain dicts in RFC 7946 shape; :func:`write_geojson`
serialises any of them to disk and returns the path.

:func:`linestring_collection_bytes` skips the dicts for a whole batch
of paths: it writes the FeatureCollection as the exact bytes
``json.dumps`` gives it, every coordinate by vectorised NumPy passes
that reproduce ``float.__repr__`` (:func:`linestring_coordinates`).
"""

import json
from pathlib import Path

import numpy as np

__all__ = [
    "feature_collection",
    "linestring_collection_bytes",
    "linestring_coordinates",
    "linestring_feature",
    "linestring_features",
    "point_feature",
    "write_geojson",
]

#: ``float.__repr__`` writes ``|x|`` in this range in fixed-point
#: notation, which is the only notation :func:`linestring_coordinates`
#: writes.
REPR_RANGE = (1e-4, 1e16)

# Exact powers of ten (10**k is a double for k <= 22), each also split
# into 26-bit halves for Dekker's product.
_POW10 = 10.0 ** np.arange(23)
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _split(a):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_POW10_PARTS = np.stack((_POW10,) + _split(_POW10))
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
#: Values written per pass.  Every temporary then stays under glibc's
#: default 128 KiB mmap threshold (the widest, 27 text rows, is 108
#: KiB): freeing a larger mmapped block raises the threshold for good,
#: so the follow daemon's refresh arrays would stay in the heap, and
#: peak_rss_mb rose 3 % on cold_fleet and warm_repeat without it.
_CHUNK = 4096
#: ASCII tens and units digit of 0..99.
_DIGIT_PAIRS = np.array([np.arange(100) // 10, np.arange(100) % 10], dtype=np.uint8) + 48
#: Text row indices of a number's 22 digit/point positions.
_ROWS = np.arange(22, dtype=np.uint8)[:, None]


def _scaled(a, k):
    """``(high, low)`` with ``high + low == a * 10**k`` exactly: the
    rounded product and its error, by Dekker's two-product."""
    b, b_high, b_low = _POW10_PARTS.take(k, axis=1)
    high = a * b
    a_high, a_low = _split(a)
    low = ((a_high * b_high - high) + a_high * b_low + a_low * b_high) + a_low * b_low
    return high, low


def _nearest(quotient, unit, top, bounds):
    """Of ``quotient * unit`` and the next multiple of *unit*, the one in
    a scaled value's rounding interval nearest to it (ties to an even
    quotient), and whether either is in the interval.

    *top* and *bounds* (``2 * low`` and the interval's ends as exact
    offsets from ``top``) describe each scaled value, as
    :func:`_shortest_digits` builds them; every argument broadcasts.
    """
    twice_low, upper, lower = bounds
    below = quotient * unit
    offset = (below - top).astype(np.float64)
    above = offset + unit
    in_below = (offset <= upper) & (offset >= lower)
    in_above = (above <= upper) & (above >= lower)
    # Above is nearer when 2 * (scaled - below) > unit.
    middle = offset + above
    up = in_above & (
        ~in_below | (twice_low > middle) | ((twice_low == middle) & ((quotient & 1) == 1))
    )
    return below + up * unit, in_below | in_above


def _shortest_digits(a):
    """The shortest round-tripping decimal of each positive double *a*
    in :data:`REPR_RANGE`, as ``float.__repr__`` picks it.

    Returns ``(digits, size, point)``: *digits* is a 17-digit int64
    ``d1 d2 ... d17`` whose first *size* digits are significant (the
    rest are zeros) and the value is ``0.d1d2...d17 * 10**point``.

    Each value is scaled by ``10**(16 - E)`` into ``[1e16, 1e17)``
    exactly, as ``top + low`` (an integer double and its error), and
    so is its rounding interval, half an ulp each side.  The shortest
    decimal has the most trailing zeros of any integer in that
    interval, and among those the nearest (ties to an even last digit).
    Every boundary test compares a small integer offset from ``top``
    with an end of the interval, ``low`` plus or less the half-width,
    which is exact: for ``a = m * 2**e`` scaled by ``10**k`` both are
    multiples of ``2**(e+k-1) >= 2**-48`` below 32 in size.

    In :data:`REPR_RANGE` the interval's finer points never decide:
    an end lands on a multiple of ten only for ``|a| >= 2**53``, whose
    own scaled text already ends in a zero there, so whether an end is
    open (odd mantissa) does not matter; and the quarter ulp below a
    power of two would matter only if its scaled text sat within 12 of
    a multiple of ten with more trailing zeros than its own, which no
    power of two from ``2**-13`` to ``2**53`` does.
    """
    exponent = np.floor(np.log10(a)).astype(np.int64)
    top, low = _scaled(a, 16 - exponent)
    # log10 may land one decade off next to a power of ten.  Near zero
    # both differences are exact (multiples of top's ulp), so adding
    # low gives the exact product's side of each bound.
    under = (top - 1e16) + low < 0.0
    over = (top - 1e17) + low >= 0.0
    off = np.flatnonzero(under | over)
    if len(off):
        exponent[off] += over[off].astype(np.int64) - under[off]
        top[off], low[off] = _scaled(a[off], 16 - exponent[off])
    half = np.spacing(a) * _POW10.take(16 - exponent) * 0.5
    bounds = np.stack((2.0 * low, low + half, low - half))
    top = top.astype(np.int64)
    whole = top + np.floor(low).astype(np.int64)  # floor of the scaled value
    # The nearest multiple of 1, 10 and 100, side by side (an integer
    # always fits: 17 digits round-trip); few values fit a 100.
    units = _POW10_INT[:, None]
    candidate, fits = _nearest(whole // units[:3], units[:3], top, bounds)
    zeros = fits[1:].sum(axis=0)
    digits = np.where(fits[2], candidate[2], np.where(fits[1], candidate[1], candidate[0]))
    # Those try every larger 10**t at once; a multiple of 10**t is one
    # of 10**(t-1), so the count of fits is the count of trailing zeros.
    rows = np.flatnonzero(fits[2])
    if len(rows):
        wide, fits = _nearest(whole[rows] // units[3:], units[3:], top[rows], bounds[:, rows])
        extra = fits.sum(axis=0)
        found = np.flatnonzero(extra)
        digits[rows[found]] = wide[extra[found] - 1, found]
        zeros[rows] += extra
    # No candidate is 1e17: that is 10**(E+1), a double other than a
    # (powers of ten are exact to 1e22), so outside a's interval.
    return digits, 17 - zeros, exponent + 1


def _write_reprs(values, out):
    """Write ``repr(values[i])`` into column ``i`` of the 23 uint8 rows
    *out* (a sign row, then 22 digit and point rows), zeros padding
    each text on both sides, and return the texts' lengths.

    Returns ``None``, writing nothing, if any value lies outside
    :data:`REPR_RANGE` (zero, NaN and infinities included).
    """
    a = np.abs(values)
    if not ((a >= REPR_RANGE[0]) & (a < REPR_RANGE[1])).all():
        return None
    digits, size, point = _shortest_digits(a)
    count = len(values)
    # padded[1:] is "0000" then the 17 digits then "0"; padded[:-1] is
    # the same shifted down one row, for the rows after the point.
    padded = np.empty((23, count), dtype=np.uint8)
    padded[0] = 0
    padded[1:5] = 48
    padded[22] = 48
    high = digits // 100000000
    lead = high // 100000000
    padded[5] = 48 + lead
    # The other 16 digits as two 8-digit halves, then 4 pairs each.
    halves = np.stack((high - lead * 100000000, digits - high * 100000000)).astype(np.int32)
    pairs = np.empty((2, 4, count), dtype=np.uint8)
    for j, unit in enumerate((1000000, 10000, 100)):
        head = halves // unit
        pairs[:, j] = head
        halves -= head * unit
    pairs[:, 3] = halves
    text = _DIGIT_PAIRS.take(pairs, axis=1).transpose(1, 2, 0, 3)
    padded[6:22].reshape(2, 4, 2, count)[...] = text
    # The point sits at text row 4 + point (in 1..20); rows before it
    # take padded[1:], rows after it padded[:-1].
    at = (point + 4).astype(np.uint8)
    body = out[1:]
    before = _ROWS < at
    np.subtract(padded[1:], padded[:-1], out=body)
    body *= before
    body += padded[:-1]
    body.put(at.astype(np.int64) * count + np.arange(count), 46)
    # Keep one integer digit at least, and one fraction digit at least.
    first = np.minimum(at, 5) - 1
    last = np.maximum(at + 1, (size + 4).astype(np.uint8))
    body *= (_ROWS >= first) & (_ROWS <= last)
    negative = values < 0.0
    out[0] = negative * 45
    return last - first + 1 + negative


def linestring_coordinates(lats, lngs):
    """Each path's ``coordinates`` array as JSON bytes, equal to
    ``json.dumps([[lng, lat], ...]).encode()`` of its float64 values.

    NumPy passes of :data:`_CHUNK` values write every coordinate's
    ``float.__repr__`` text; each path's text is a slice of the joined
    buffer.  Returns ``None`` if any coordinate is outside
    :data:`REPR_RANGE`: a batch at exactly 0.0 or within 1e-4 degrees
    of the equator or the prime meridian must take the stdlib encoder.
    """
    sizes = np.array([len(path) for path in lats], dtype=np.int64)
    values = np.empty((int(sizes.sum()), 2))
    if len(sizes):
        values[:, 0] = np.concatenate(lngs)
        values[:, 1] = np.concatenate(lats)
    values = values.ravel()
    texts, lengths = [], []
    for lo in range(0, len(values), _CHUNK):
        part = values[lo : lo + _CHUNK]
        # Each value's column: '[' (lng only), its text, then ', ' after
        # a lng and '], ' after a lat (a pass, being even, starts at a lng).
        out = np.zeros((27, len(part)), dtype=np.uint8)
        written = _write_reprs(part, out[1:24])
        if written is None:
            return None
        out[0, 0::2] = ord("[")
        out[24:26, 0::2] = np.array([[ord(",")], [ord(" ")]], dtype=np.uint8)
        out[24:27, 1::2] = np.array([[ord("]")], [ord(",")], [ord(" ")]], dtype=np.uint8)
        texts.append(out.T.tobytes().translate(None, b"\0"))
        lengths.append(written)
    text = b"".join(texts)
    lengths = np.concatenate(lengths) if lengths else np.zeros(0, dtype=np.uint8)
    ends = np.zeros(len(values) // 2 + 1, dtype=np.int64)
    np.cumsum(lengths[0::2] + lengths[1::2].astype(np.int64) + 6, out=ends[1:])
    bounds = ends[np.concatenate(([0], np.cumsum(sizes)))].tolist()
    # Each path drops its last pair's ', ' and closes its array.
    return [
        b"[" + text[lo : hi - 2] + b"]" if hi > lo else b"[]"
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def linestring_features(lats, lngs, properties):
    """Yield one LineString feature per ``(lats[i], lngs[i], properties[i])``.

    Coordinates for every path come from one ``tolist`` over the
    concatenated ``[lng, lat]`` columns, sliced per feature, and each
    *properties* mapping is used as given (not copied).  Features are
    built lazily, so a consumer such as :func:`feature_collection` pays
    for them as it draws them.
    """
    sizes = [len(a) for a in lats]
    if not sizes:
        return
    coords = np.column_stack(
        (
            np.concatenate(lngs).astype(np.float64, copy=False),
            np.concatenate(lats).astype(np.float64, copy=False),
        )
    ).tolist()
    lo = 0
    for size, props in zip(sizes, properties):
        hi = lo + size
        yield _linestring(coords[lo:hi], props)
        lo = hi


def _linestring(coordinates, properties):
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coordinates},
        "properties": properties,
    }


def linestring_feature(lats, lngs, properties=None):
    """A LineString feature from parallel lat/lng arrays."""
    (feature,) = linestring_features([lats], [lngs], [dict(properties or {})])
    return feature


def point_feature(lat, lng, properties=None):
    """A single Point feature."""
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [float(lng), float(lat)]},
        "properties": dict(properties or {}),
    }


def feature_collection(features):
    """Wrap features into a FeatureCollection."""
    return {"type": "FeatureCollection", "features": list(features)}


def _text_around(obj):
    """The JSON bytes of *obj*, split where it holds the string ``"\\0"``."""
    return json.dumps(obj).encode().split(b'"\\u0000"')


#: A LineString feature's text around its coordinates and properties,
#: and a FeatureCollection's around and between its features.
_FEATURE_TEXT = _text_around(_linestring("\0", "\0"))
_COLLECTION_TEXT = _text_around(feature_collection(["\0", "\0"]))


def linestring_collection_bytes(lats, lngs, properties):
    """``json.dumps(feature_collection(linestring_features(lats, lngs,
    properties))).encode()``, without building the features.

    The coordinates come from :func:`linestring_coordinates` and each
    properties mapping from ``json.dumps``.  Returns ``None`` where
    :func:`linestring_coordinates` does.
    """
    coordinates = linestring_coordinates(lats, lngs)
    if coordinates is None:
        return None
    head, middle, tail = _FEATURE_TEXT
    opening, separator, closing = _COLLECTION_TEXT
    features = separator.join(
        b"".join((head, text, middle, json.dumps(props).encode(), tail))
        for text, props in zip(coordinates, properties)
    )
    return b"".join((opening, features, closing))


def write_geojson(obj, path):
    """Serialise a GeoJSON dict to *path*; returns the :class:`Path`."""
    path = Path(path)
    path.write_text(json.dumps(obj))
    return path
