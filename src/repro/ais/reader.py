"""Real-AIS loaders: map public dump columns onto the canonical schema.

Public AIS archives disagree on header names -- MarineCadastre uses
``MMSI, BaseDateTime, LAT, LON, SOG, COG, VesselType``; the Danish
Maritime Authority uses ``# Timestamp, MMSI, Latitude, Longitude, SOG,
COG, Ship type`` with ``dd/mm/yyyy`` timestamps.  :func:`read_csv`
normalises either (and close relatives) into a raw
:class:`repro.minidb.Table` in :mod:`repro.ais.schema` columns, so real
dumps flow through the exact pipeline the synthetic generators feed:
``clean_messages -> segment_trips -> fit``.

The loader is deliberately lenient about *values*: rows without a
parseable vessel id or timestamp are dropped (nothing downstream can use
them), while unparseable coordinates/speeds become NaN for
:func:`repro.core.clean_messages` to discard -- cleaning policy stays in
one place.  It is strict about *structure*: missing required columns
raise :class:`AISFormatError` naming what could not be mapped.
"""

import csv
import io
import os
import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.ais import schema
from repro.minidb import Table

__all__ = [
    "AISFormatError",
    "CsvFollower",
    "read_csv",
    "read_csv_chunks",
    "read_parquet",
]

#: Default rows per chunk for :func:`read_csv_chunks` (~tens of MB of
#: parsed arrays; month-scale dumps stream in hundreds of chunks).
DEFAULT_CHUNK_ROWS = 250_000


class AISFormatError(ValueError):
    """An AIS dump's structure cannot be mapped onto the schema."""


#: lowercased source header -> canonical schema column.
COLUMN_ALIASES = {
    # vessel id
    "mmsi": schema.VESSEL_ID,
    "vessel_id": schema.VESSEL_ID,
    "userid": schema.VESSEL_ID,
    "sourcemmsi": schema.VESSEL_ID,
    # timestamp
    "t": schema.T,
    "timestamp": schema.T,
    "# timestamp": schema.T,
    "basedatetime": schema.T,
    "time": schema.T,
    "epoch": schema.T,
    # position
    "lat": schema.LAT,
    "latitude": schema.LAT,
    "lon": schema.LON,
    "lng": schema.LON,
    "long": schema.LON,
    "longitude": schema.LON,
    # kinematics
    "sog": schema.SOG,
    "speed": schema.SOG,
    "speedoverground": schema.SOG,
    "cog": schema.COG,
    "course": schema.COG,
    "courseoverground": schema.COG,
    # class
    "vessel_type": schema.VESSEL_TYPE,
    "vesseltype": schema.VESSEL_TYPE,
    "ship type": schema.VESSEL_TYPE,
    "ship_type": schema.VESSEL_TYPE,
    "shiptype": schema.VESSEL_TYPE,
}

#: Columns a dump must provide; the rest default (SOG/COG 0, type unknown).
REQUIRED_COLUMNS = (schema.VESSEL_ID, schema.T, schema.LAT, schema.LON)

_TIME_FORMATS = (
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%d/%m/%Y %H:%M:%S",
    "%m/%d/%Y %H:%M:%S",
)


def _parse_time(value):
    """One timestamp string to epoch seconds, or None."""
    value = str(value).strip()
    if not value:
        return None
    try:
        return float(value)
    except ValueError:
        pass
    for fmt in _TIME_FORMATS:
        try:
            parsed = datetime.strptime(value, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=timezone.utc).timestamp()
    return None


#: The exact 19-character shapes of :data:`_TIME_FORMATS`, ISO (either
#: separator) and slash dates, with every field zero-padded and in range
#: for ``strptime``.
_ISO_STAMP = re.compile(r"\d{4}-\d\d-\d\d[T ](?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d", re.ASCII)
_SLASH_STAMP = re.compile(r"\d\d/\d\d/\d{4} (?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d", re.ASCII)


def _iso_epoch(text):
    """Epoch seconds of an ISO ``YYYY-MM-DD?HH:MM:SS`` stamp read as UTC,
    or None for an invalid date."""
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        return None
    return parsed.replace(tzinfo=timezone.utc).timestamp()


def _fast_time(value):
    """:func:`_parse_time` for an exact :data:`_TIME_FORMATS` shape, by
    ``datetime.fromisoformat``; None for anything else (the caller falls
    back to :func:`_parse_time`).  A slash date is tried day-first, then
    month-first, as :func:`_parse_time` does."""
    if not isinstance(value, str):
        return None
    text = value.strip()
    if _ISO_STAMP.fullmatch(text):
        return _iso_epoch(text)
    if not _SLASH_STAMP.fullmatch(text):
        return None
    clock = text[10:]
    parsed = _iso_epoch(f"{text[6:10]}-{text[3:5]}-{text[:2]}{clock}")
    if parsed is None:
        parsed = _iso_epoch(f"{text[6:10]}-{text[:2]}-{text[3:5]}{clock}")
    return parsed


def _map_header(names, source):
    mapping = {}
    for index, name in enumerate(names):
        canonical = COLUMN_ALIASES.get(str(name).strip().lower())
        if canonical is not None and canonical not in mapping:
            mapping[canonical] = index
    missing = [c for c in REQUIRED_COLUMNS if c not in mapping]
    if missing:
        raise AISFormatError(
            f"{source}: cannot map required columns {missing} "
            f"from headers {list(names)}"
        )
    return mapping


def _to_float(values):
    """Column to float64 with unparseable entries as NaN.

    One vectorised parse first; NumPy's str -> float64 cast is Python's
    ``float``, so only a column holding an unparseable entry takes the
    per-element path.
    """
    try:
        return np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        pass
    out = np.full(len(values), np.nan)
    for i, value in enumerate(values):
        try:
            out[i] = float(value)
        except (TypeError, ValueError):
            pass
    return out


def _to_epoch(values):
    """Column to epoch seconds (numeric, datetime64, or string formats).

    Numeric columns, strings included, take one vectorised parse (the
    numbers :func:`_parse_time` would return); only a column with a date
    string or an unparseable entry is parsed per element, exact
    :data:`_TIME_FORMATS` stamps by :func:`_fast_time`.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "M":
        stamped = values.astype("datetime64[ns]")
        out = stamped.astype(np.int64) / 1e9
        out[np.isnat(stamped)] = np.nan  # NaT casts to int64-min, not NaN
        return out
    try:
        return np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        pass
    out = np.full(len(values), np.nan)
    for i, value in enumerate(values):
        parsed = _fast_time(value)
        if parsed is None:
            parsed = _parse_time(value)
        if parsed is not None:
            out[i] = parsed
    return out


def _from_named_columns(named, source):
    """Alias-map and coerce ``{header: column}`` into a raw schema table;
    a column is an array or a sequence of raw values."""
    mapping = _map_header(list(named), source)
    by_header = list(named.values())
    column = {key: by_header[idx] for key, idx in mapping.items()}

    vessel = _to_float(column[schema.VESSEL_ID])
    t = _to_epoch(column[schema.T])
    keep = np.isfinite(vessel) & np.isfinite(t)

    n = int(keep.sum())
    out = {
        schema.VESSEL_ID: vessel[keep].astype(np.int64),
        schema.T: t[keep],
        schema.LAT: _to_float(column[schema.LAT])[keep],
        schema.LON: _to_float(column[schema.LON])[keep],
    }
    for key in (schema.SOG, schema.COG):
        out[key] = _to_float(column[key])[keep] if key in column else np.zeros(n)
    if schema.VESSEL_TYPE in column:
        # dtype=str sizes to the longest label; a fixed width would
        # silently truncate real-world type names.
        types = np.asarray(column[schema.VESSEL_TYPE], dtype=np.str_)
        types = np.char.lower(np.char.strip(types))[keep]
        out[schema.VESSEL_TYPE] = np.where(types == "", "unknown", types)
    else:
        out[schema.VESSEL_TYPE] = np.full(n, "unknown")
    return Table({name: out[name] for name in schema.RAW_COLUMNS})


def _rows_to_table(header, cells, source):
    """Equal-width CSV rows to a raw schema table, one column sequence
    per header field (no fixed-width string arrays, which would cut long
    fields)."""
    columns = list(zip(*cells)) if cells else [()] * len(header)
    return _from_named_columns(dict(zip(header, columns)), source)


def read_csv(path, delimiter=","):
    """Load a public AIS dump CSV into a raw schema :class:`Table`.

    Headers are matched case-insensitively against :data:`COLUMN_ALIASES`;
    rows whose field count disagrees with the header are skipped.  The
    result feeds straight into :func:`repro.core.clean_messages`.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = csv.reader(handle, delimiter=delimiter)
        header = next(rows, None)
        if not header:
            raise AISFormatError(f"{path}: empty file, no header row")
        width = len(header)
        cells = [row for row in rows if len(row) == width]
    return _rows_to_table(header, cells, str(path))


def read_csv_chunks(path, chunk_rows=DEFAULT_CHUNK_ROWS, delimiter=","):
    """Stream a public AIS dump CSV as bounded-memory schema tables.

    An iterator of :class:`repro.minidb.Table` chunks of at most
    *chunk_rows* source rows each -- the whole dump is never materialised,
    so month-scale archives fit in constant memory.  Each chunk gets the
    same alias mapping and value coercion as :func:`read_csv`;
    concatenating every chunk reproduces ``read_csv(path)`` exactly.
    Pipe chunks through :func:`repro.core.clean_messages`, a
    :class:`repro.core.StreamingSegmenter` and
    :meth:`repro.core.HabitImputer.fit_partial` for a fixed-memory fit.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = csv.reader(handle, delimiter=delimiter)
        header = next(rows, None)
        if not header:
            raise AISFormatError(f"{path}: empty file, no header row")
        # Map (and so validate) the header up front: a structurally broken
        # dump fails on the first chunk, not somewhere mid-stream.
        _map_header(header, str(path))
        width = len(header)
        buffer = []
        for row in rows:
            if len(row) != width:
                continue
            buffer.append(row)
            if len(buffer) >= chunk_rows:
                yield _rows_to_table(header, buffer, str(path))
                buffer = []
        if buffer:
            yield _rows_to_table(header, buffer, str(path))


class CsvFollower:
    """Incremental reader over a *growing* AIS dump (``tail -f`` for CSVs).

    :func:`read_csv_chunks` reads to end-of-file and stops;
    a live-refresh daemon instead needs to pick up rows appended after
    the last read.  A follower remembers its byte offset into the file
    and each :meth:`poll` parses only what arrived since -- through the
    same alias mapping and value coercion as :func:`read_csv`, so
    concatenating every polled chunk reproduces ``read_csv(path)`` over
    the rows seen so far.

    Append semantics:

    - Only *complete* lines are consumed: a write caught mid-line stays
      unread until its terminating newline lands, so a torn row is never
      parsed as data.  The feed must be line-oriented: one row per
      physical line, no quoted fields containing embedded newlines (a
      quoting dialect no public AIS dump uses; such rows would be split
      at the raw newline and dropped by the field-count filter).
    - The header is read (and validated against
      :data:`REQUIRED_COLUMNS`) on the first poll that sees it; polls
      before any data simply return nothing.
    - Truncating or rotating the file underneath a follower raises
      :class:`AISFormatError` -- the offset no longer names real bytes,
      and silently rereading a rotated file would double-ingest.

    This is the ingestion half of the service's ``--follow`` mode; see
    :class:`repro.service.follow.FollowDaemon` for the full loop.
    """

    #: Upper bound on bytes read per :meth:`poll` -- keeps the peak
    #: memory of catching up on a large backlog at one slice, not the
    #: whole file; the daemon simply polls again for the rest.
    MAX_POLL_BYTES = 32 * 1024 * 1024

    def __init__(self, path, chunk_rows=DEFAULT_CHUNK_ROWS, delimiter=","):
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        self.path = Path(path)
        self.chunk_rows = int(chunk_rows)
        self.delimiter = delimiter
        self._offset = 0
        self._header = None
        self._inode = None  # identity of the file the offset belongs to
        #: Source rows consumed so far (complete data lines, pre-coercion).
        self.rows_read = 0

    def poll(self):
        """Parse rows appended since the last poll; returns a list of Tables.

        Each table holds at most ``chunk_rows`` source rows, and one
        poll reads at most :data:`MAX_POLL_BYTES` from the file (a large
        backlog drains over successive polls, so memory stays bounded
        regardless of how far behind the follower is).  Returns ``[]``
        when nothing complete has arrived (including before the header
        line lands).  Safe to call on a path that does not exist yet --
        that also returns ``[]``.
        """
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                # The offset only means anything on the file it was read
                # from: a create-mode rotation swaps the inode, and a
                # fast writer can regrow the replacement past the offset
                # before the next poll -- size alone would miss that.
                # Identity is only enforced once bytes were consumed
                # (offset > 0): before that, a writer atomically
                # publishing the first content over an empty placeholder
                # is a fresh start, not a rotation.
                ident = (stat.st_dev, stat.st_ino)
                if self._offset and self._inode is not None and ident != self._inode:
                    raise AISFormatError(
                        f"{self.path}: file was replaced under the follower "
                        "(inode changed); rotation is not followable -- "
                        "restart the follower"
                    )
                self._inode = ident
                if stat.st_size < self._offset:
                    raise AISFormatError(
                        f"{self.path}: file shrank below the follow offset "
                        f"({stat.st_size} < {self._offset}); truncation/rotation "
                        "is not followable -- restart the follower"
                    )
                handle.seek(self._offset)
                data = handle.read(self.MAX_POLL_BYTES)
        except FileNotFoundError:
            if self._offset:
                raise AISFormatError(
                    f"{self.path}: file disappeared mid-follow"
                ) from None
            return []
        cut = data.rfind(b"\n")
        if cut < 0:
            if len(data) >= self.MAX_POLL_BYTES:
                raise AISFormatError(
                    f"{self.path}: no newline within {self.MAX_POLL_BYTES} "
                    "bytes; not a line-oriented CSV feed"
                )
            return []
        # Parse the slice fully *before* committing the offset: a decode
        # or structure error must leave the follower exactly where it
        # was, so a retry (or an operator fixing the feed) re-reads the
        # same bytes instead of silently skipping the whole slice.
        text = data[: cut + 1].decode("utf-8")
        header = self._header
        if header is None and text.startswith("\ufeff"):
            text = text[1:]  # utf-8-sig BOM, possible only at file start
        rows = list(csv.reader(io.StringIO(text, newline=""), delimiter=self.delimiter))
        if header is None:
            if not rows:
                return []
            # Validate structure on the first sight of the header, like
            # read_csv_chunks: a broken dump fails immediately, not after
            # hours of appends.
            header = rows.pop(0)
            _map_header(header, str(self.path))
        width = len(header)
        cells = [row for row in rows if len(row) == width]
        tables = [
            _rows_to_table(header, cells[i : i + self.chunk_rows], str(self.path))
            for i in range(0, len(cells), self.chunk_rows)
        ]
        self._header = header
        self._offset += cut + 1
        self.rows_read += len(cells)
        return tables

    # -- persistence (daemon restarts must not re-ingest) ------------------

    def state(self):
        """JSON-ready resume point: byte offset, rows read, file identity.

        Persist this after downstream processing succeeds and hand it to
        :meth:`resume` on the next run -- re-polling from byte 0 would
        feed every historical row into the consumer a second time.
        """
        return {
            "offset": self._offset,
            "rows_read": self.rows_read,
            "inode": list(self._inode) if self._inode is not None else None,
        }

    def resume(self, state):
        """Continue a previous follower's position on the same file.

        Re-reads and re-validates the header from the top of the file
        (the offset already points past it), restores the byte offset,
        and pins the recorded file identity -- a dump replaced while the
        follower was down raises :class:`AISFormatError` rather than
        guessing whether re-reading would double-ingest; drop the saved
        state to deliberately start over on the new file.  Returns self.
        """
        offset = int(state["offset"])
        if offset <= 0:
            return self
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                header_line = handle.readline(offset)
        except FileNotFoundError:
            raise AISFormatError(
                f"{self.path}: cannot resume, file is gone; drop the saved "
                "follow state to start over"
            ) from None
        recorded = state.get("inode")
        # Across restarts only the inode number is compared: st_dev is
        # not stable across reboots/remounts, and rejecting an intact
        # file would force a destructive re-baseline.  (In-run polls
        # still compare the full (dev, ino) pair -- devices cannot
        # change under a live process without a remount-style rotation.)
        if recorded is not None and recorded[-1] != stat.st_ino:
            raise AISFormatError(
                f"{self.path}: file was replaced while the follower was down; "
                "drop the saved follow state to start over on the new file"
            )
        if stat.st_size < offset:
            raise AISFormatError(
                f"{self.path}: file shrank below the saved offset "
                f"({stat.st_size} < {offset}); drop the saved follow state "
                "to start over"
            )
        header = next(
            csv.reader([header_line.decode("utf-8").lstrip("\ufeff")],
                       delimiter=self.delimiter),
            None,
        )
        if not header:
            raise AISFormatError(f"{self.path}: cannot resume, no header row")
        _map_header(header, str(self.path))
        self._header = header
        self._offset = offset
        self._inode = (stat.st_dev, stat.st_ino)
        self.rows_read = int(state.get("rows_read", 0))
        return self


def read_parquet(path):
    """Load an AIS dump parquet file; requires pandas with a parquet engine.

    The container image may not ship pandas -- this entry point is gated,
    not a hard dependency: without pandas it raises ``RuntimeError``
    pointing at the CSV path instead of failing at import time.
    """
    try:
        import pandas as pd
    except ImportError as exc:
        raise RuntimeError(
            "read_parquet requires pandas (with a parquet engine such as "
            "pyarrow); install them or convert the dump to CSV for read_csv"
        ) from exc
    frame = pd.read_parquet(path)
    named = {str(name): frame[name].to_numpy() for name in frame.columns}
    return _from_named_columns(named, str(path))
