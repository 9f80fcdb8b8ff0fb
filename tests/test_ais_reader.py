"""Real-AIS CSV/parquet loaders: header mapping, coercion, pipeline fit.

The CSV parse hands each column to the coercions as a sequence of raw
strings and tries one vectorised float parse first.  The parse it
replaced -- a fixed-width ``U64`` array per column, a per-element
timestamp parse on every string column -- is kept below as an oracle;
the two agree bit for bit on every column except labels the oracle cut
at 64 characters.
"""

import csv

import numpy as np
import pytest

import repro.ais.reader as reader
from repro import ais
from repro.ais import schema
from repro.core import clean_messages, segment_trips
from repro.minidb import Table

# -- oracle: the fixed-width parse the column-native one replaced ----------


def _oracle_to_float(values):
    arr = np.asarray(values)
    try:
        return arr.astype(np.float64)
    except ValueError:
        pass
    out = np.full(len(arr), np.nan)
    for i, value in enumerate(arr):
        try:
            out[i] = float(value)
        except (TypeError, ValueError):
            pass
    return out


def _oracle_to_epoch(values):
    arr = np.asarray(values)
    if arr.dtype.kind == "M":
        stamped = arr.astype("datetime64[ns]")
        out = stamped.astype(np.int64) / 1e9
        out[np.isnat(stamped)] = np.nan
        return out
    if arr.dtype.kind in "fiu":
        return arr.astype(np.float64)
    out = np.full(len(arr), np.nan)
    for i, value in enumerate(arr):
        parsed = reader._parse_time(value)
        if parsed is not None:
            out[i] = parsed
    return out


def _oracle_rows_to_table(header, cells, source):
    named = {
        name: np.array([row[i] for row in cells], dtype="U64")
        for i, name in enumerate(header)
    }
    mapping = reader._map_header(list(named), source)
    by_header = list(named.values())
    column = {key: np.asarray(by_header[idx]) for key, idx in mapping.items()}
    vessel = _oracle_to_float(column[schema.VESSEL_ID])
    t = _oracle_to_epoch(column[schema.T])
    keep = np.isfinite(vessel) & np.isfinite(t)
    n = int(keep.sum())
    out = {
        schema.VESSEL_ID: vessel[keep].astype(np.int64),
        schema.T: t[keep],
        schema.LAT: _oracle_to_float(column[schema.LAT])[keep],
        schema.LON: _oracle_to_float(column[schema.LON])[keep],
    }
    for key in (schema.SOG, schema.COG):
        out[key] = _oracle_to_float(column[key])[keep] if key in column else np.zeros(n)
    if schema.VESSEL_TYPE in column:
        types = np.asarray(column[schema.VESSEL_TYPE], dtype=np.str_)
        types = np.char.lower(np.char.strip(types))[keep]
        out[schema.VESSEL_TYPE] = np.where(types == "", "unknown", types)
    else:
        out[schema.VESSEL_TYPE] = np.full(n, "unknown")
    return Table({name: out[name] for name in schema.RAW_COLUMNS})

MARINE_CADASTRE_CSV = """\
MMSI,BaseDateTime,LAT,LON,SOG,COG,Heading,VesselName,VesselType
367000001,2023-01-01T00:00:00,54.5000,10.2000,8.5,120.0,119,EVER FORWARD,Cargo
367000001,2023-01-01T00:00:30,54.5010,10.2030,8.6,121.0,120,EVER FORWARD,Cargo
367000001,2023-01-01T00:01:00,54.5020,10.2060,8.4,122.0,121,EVER FORWARD,Cargo
219000002,2023-01-01T00:00:10,55.1000,11.3000,11.2,200.0,199,FERRY ONE,Passenger
219000002,2023-01-01T00:00:40,55.0990,11.2970,11.1,201.0,200,FERRY ONE,Passenger
"""

DANISH_CSV = """\
# Timestamp,Type of mobile,MMSI,Latitude,Longitude,Navigational status,ROT,SOG,COG,Heading,Ship type
23/02/2023 00:00:00,Class A,219000001,56.1000,11.2000,Under way using engine,0,9.1,45.0,44,Tanker
23/02/2023 00:00:30,Class A,219000001,56.1010,11.2020,Under way using engine,0,9.2,46.0,45,Tanker
23/02/2023 00:01:00,Class A,219000001,56.1020,11.2040,Under way using engine,0,9.0,47.0,46,Tanker
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_read_csv_marine_cadastre_style(tmp_path):
    table = ais.read_csv(_write(tmp_path, "mc.csv", MARINE_CADASTRE_CSV))
    assert table.column_names == list(schema.RAW_COLUMNS)
    assert table.num_rows == 5
    vessel = table.column(schema.VESSEL_ID)
    assert vessel.dtype == np.int64
    assert set(vessel.tolist()) == {367000001, 219000002}
    t = table.column(schema.T)
    assert t.dtype == np.float64
    # ISO timestamps 30 s apart become epoch seconds 30 s apart.
    first_vessel = t[vessel == 367000001]
    assert np.allclose(np.diff(first_vessel), 30.0)
    assert np.allclose(table.column(schema.LAT)[:3], [54.5, 54.501, 54.502])
    # Vessel classes are normalised to lowercase (the generators' style).
    assert set(table.column(schema.VESSEL_TYPE).tolist()) == {"cargo", "passenger"}


def test_read_csv_danish_style(tmp_path):
    table = ais.read_csv(_write(tmp_path, "dk.csv", DANISH_CSV))
    assert table.num_rows == 3
    t = table.column(schema.T)
    assert np.allclose(np.diff(t), 30.0)  # dd/mm/yyyy HH:MM:SS parsed
    assert np.all(table.column(schema.VESSEL_ID) == 219000001)
    assert set(table.column(schema.VESSEL_TYPE).tolist()) == {"tanker"}
    assert np.allclose(table.column(schema.SOG), [9.1, 9.2, 9.0])


def test_read_csv_missing_required_column(tmp_path):
    headerless = MARINE_CADASTRE_CSV.replace("LON", "FOO")
    with pytest.raises(ais.AISFormatError, match="lon"):
        ais.read_csv(_write(tmp_path, "bad.csv", headerless))


def test_read_csv_empty_file(tmp_path):
    with pytest.raises(ais.AISFormatError, match="empty"):
        ais.read_csv(_write(tmp_path, "empty.csv", ""))


def test_read_csv_optional_columns_default(tmp_path):
    text = "mmsi,epoch,latitude,longitude\n1,0.0,54.0,10.0\n1,30.0,54.01,10.01\n"
    table = ais.read_csv(_write(tmp_path, "min.csv", text))
    assert table.num_rows == 2
    assert np.all(table.column(schema.SOG) == 0.0)
    assert np.all(table.column(schema.COG) == 0.0)
    assert set(table.column(schema.VESSEL_TYPE).tolist()) == {"unknown"}


def test_read_csv_drops_and_coerces_bad_rows(tmp_path):
    text = (
        "MMSI,BaseDateTime,LAT,LON,SOG,COG\n"
        "1,2023-01-01T00:00:00,54.0,10.0,5.0,90.0\n"
        "not-a-vessel,2023-01-01T00:00:30,54.0,10.0,5.0,90.0\n"  # dropped
        "1,never,54.0,10.0,5.0,90.0\n"  # dropped
        "1,2023-01-01T00:01:00,bogus,10.1,5.0,90.0\n"  # lat -> NaN, kept
        "1,2023-01-01T00:01:30,54.2,10.2\n"  # short row skipped
    )
    table = ais.read_csv(_write(tmp_path, "messy.csv", text))
    assert table.num_rows == 2  # identity/time failures dropped, short row skipped
    lat = table.column(schema.LAT)
    assert np.isfinite(lat[0]) and np.isnan(lat[1])
    # clean_messages owns the policy for the NaN survivor.
    cleaned = clean_messages(table)
    assert cleaned.num_rows == 1


def test_read_csv_feeds_the_pipeline(tmp_path):
    # A denser dump: one vessel, 20 reports, 30 s cadence -> one trip.
    rows = ["MMSI,Timestamp,Latitude,Longitude,SOG,COG,Ship type"]
    for i in range(20):
        rows.append(
            f"219000009,{float(i) * 30.0},{54.0 + i * 1e-3:.4f},{10.0 + i * 1e-3:.4f},"
            f"8.0,45.0,Cargo"
        )
    table = ais.read_csv(_write(tmp_path, "trip.csv", "\n".join(rows) + "\n"))
    trips = segment_trips(clean_messages(table))
    assert schema.TRIP_ID in trips
    assert len(np.unique(trips.column(schema.TRIP_ID))) == 1
    assert trips.num_rows == 20


def test_read_csv_keeps_long_vessel_type_labels(tmp_path):
    text = (
        "MMSI,epoch,Latitude,Longitude,Ship type\n"
        "1,0.0,54.0,10.0,Not party to conflict\n"
    )
    table = ais.read_csv(_write(tmp_path, "long.csv", text))
    assert table.column(schema.VESSEL_TYPE)[0] == "not party to conflict"


def test_to_epoch_drops_nat_timestamps():
    from repro.ais.reader import _to_epoch

    stamped = np.array(["2023-01-01T00:00:00", "NaT"], dtype="datetime64[s]")
    out = _to_epoch(stamped)
    assert np.isfinite(out[0]) and np.isnan(out[1])  # NaT must not pass as -2**63 ns


def test_read_parquet_is_gated_or_works(tmp_path):
    try:
        import pandas as pd
    except ImportError:
        with pytest.raises(RuntimeError, match="pandas"):
            ais.read_parquet(tmp_path / "missing.parquet")
        return
    frame = pd.DataFrame(
        {
            "MMSI": [219000001, 219000001],
            "BaseDateTime": pd.to_datetime(["2023-01-01T00:00:00", "2023-01-01T00:00:30"]),
            "LAT": [54.0, 54.01],
            "LON": [10.0, 10.01],
            "SOG": [8.0, 8.1],
            "COG": [90.0, 91.0],
            "VesselType": ["Cargo", "Cargo"],
        }
    )
    path = tmp_path / "dump.parquet"
    try:
        frame.to_parquet(path)
    except ImportError:
        pytest.skip("pandas present but no parquet engine")
    table = ais.read_parquet(path)
    assert table.num_rows == 2
    assert np.allclose(np.diff(table.column(schema.T)), 30.0)
    assert set(table.column(schema.VESSEL_TYPE).tolist()) == {"cargo"}


# -- the column-native parse against the oracle -----------------------------

#: Field values a dump can carry: padding, signs, exponents, digit
#: separators, non-ASCII digits, NaN/inf spellings, hex, a decimal comma,
#: blanks, date formats and junk.
EDGE_VALUES = [
    " 1.5 ", "\t4\n", "+3.", "-0", "1e500", "1e-400", "1_000", "0001", "nan",
    "-nan", "NaN", "inf", "-infinity", "\u0661\u0662", "0x10", "1,5", "", "  ",
    "2023-01-01T00:00:30", "23/02/2023 00:00:00", "02/23/2023 00:00:00",
    "2023-01-01 00:01:00", " 2023-01-01T00:00:00 ", "2023-13-01T00:00:00",
    "never", "1.7e9",
]


def _same_bits(ours, oracle):
    return ours.dtype == oracle.dtype and ours.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("name", ["_to_float", "_to_epoch"])
def test_coercions_match_u64_oracle_on_edge_values(name):
    ours = getattr(reader, name)
    oracle = {"_to_float": _oracle_to_float, "_to_epoch": _oracle_to_epoch}[name]
    # One value per column takes the vectorised parse wherever it can,
    # and so do the numeric values together; the whole corpus in one
    # column forces the per-element fallback.
    numeric = EDGE_VALUES[: EDGE_VALUES.index("0x10")]
    for values in [[v] for v in EDGE_VALUES] + [numeric, EDGE_VALUES]:
        expected = oracle(np.array(values, dtype="U64"))
        assert _same_bits(ours(tuple(values)), expected), values
        assert _same_bits(ours(np.array(values)), expected), values


#: Date stamps for the fast path: every format, day/month ambiguity,
#: impossible dates, unpadded and out-of-range fields, padding, junk.
STAMP_VALUES = [
    "2023-04-05T06:07:08", "2023-04-05 06:07:08", "05/04/2023 06:07:08",
    "04/25/2023 06:07:08", "12/11/2023 23:59:59", "13/12/2023 00:00:00",
    "31/02/2023 00:00:00", "02/31/2023 00:00:00", "29/02/2024 12:00:00",
    "29/02/2023 12:00:00", "2023-02-31T00:00:00", "0000-01-01T00:00:00",
    "2023-4-5T06:07:08", "5/4/2023 06:07:08", "2023-04-05T6:07:08",
    "05/04/2023 6:7:8", " 05/04/2023 06:07:08 ", "\t2023-04-05T06:07:08\n",
    "2023-04-05T06:07:08.5", "2023-04-05T06:07:08Z", "2023-04-05t06:07:08",
    "2023-04-05T24:00:00", "2023-04-05T23:60:00", "2023-04-05T23:59:60",
    "05-04-2023 06:07:08", "2023/04/05 06:07:08", "05/04/2023T06:07:08",
    "\u0662023-04-05T06:07:08", "1970-01-01T00:00:00", "01/01/1970 00:00:00",
    "1680674828", "junk", "", "2023-04-05", "05/04/2023",
]


def test_epoch_fast_path_matches_oracle():
    """The fromisoformat fast path returns what ``_parse_time`` does, or
    defers to it; a date column parses to the same bits either way."""
    expected = [reader._parse_time(value) for value in STAMP_VALUES]
    for value, want in zip(STAMP_VALUES, expected):
        got = reader._fast_time(value)
        assert got is None or got == want, value
    for value in STAMP_VALUES[:5]:
        assert reader._fast_time(value) is not None, value
    oracle = np.array([np.nan if e is None else e for e in expected])
    assert _same_bits(reader._to_epoch(STAMP_VALUES), oracle)
    assert _same_bits(reader._to_epoch(np.array(STAMP_VALUES)), oracle)


def _assert_parse_matches_oracle(path, monkeypatch):
    ours = ais.read_csv(path)
    with monkeypatch.context() as patch:
        patch.setattr(reader, "_rows_to_table", _oracle_rows_to_table)
        oracle = ais.read_csv(path)
    assert ours.column_names == oracle.column_names
    for name in ours.column_names:
        a, b = np.asarray(ours.column(name)), np.asarray(oracle.column(name))
        if name == schema.VESSEL_TYPE:
            assert a.tolist() == b.tolist()
        else:
            assert _same_bits(a, b), name
    return ours


def test_parse_matches_u64_oracle_on_kiel_feed(tiny_kiel, tmp_path, monkeypatch):
    """A KIEL feed written as CSV the way the benchmark appends it
    (``repr`` floats), and again with ISO timestamps (the per-element
    date path)."""
    feed = tiny_kiel.bundle.table
    columns = [np.asarray(feed.column(c)).tolist() for c in feed.column_names]
    with open(tmp_path / "feed.csv", "w", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(feed.column_names)
        out.writerows(zip(*columns))
    table = _assert_parse_matches_oracle(tmp_path / "feed.csv", monkeypatch)
    assert table.num_rows == feed.num_rows
    stamps = np.asarray(feed.column(schema.T)).astype("datetime64[s]").astype(str)
    with open(tmp_path / "iso.csv", "w", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(feed.column_names)
        out.writerows(zip(*columns[:1], stamps.tolist(), *columns[2:]))
    assert _assert_parse_matches_oracle(tmp_path / "iso.csv", monkeypatch).num_rows > 0


def test_parse_matches_u64_oracle_on_edge_case_corpus(tmp_path, monkeypatch):
    """Whitespace, empty fields, NaN/inf, digit separators, date and
    junk timestamps, quoted commas and wrong-width rows, column by
    column: each clean column takes the vectorised parse, each messy
    one the per-element path."""
    header = "MMSI,BaseDateTime,LAT,LON,SOG,COG,VesselType\n"
    clean = (
        " 219000001 ,1.7e9,54.5, 10.2 ,nan,inf,Cargo\n"
        "1_000,\t1700000030 ,-0,10.3,+3.,-infinity, Tanker \n"
        "219000001,1700000060,54.6,1e-400,0001,1e500,\"Cargo, hazardous\"\n"
    )
    messy = (
        ",1700000000,54.5,10.2,,,\n"
        "219000001,2023-01-01T00:00:30,bogus,10.3,\"1,5\",0x10,Cargo\n"
        "219000001,23/02/2023 00:00:00,54.7,,5.0,90.0,\n"
        "219000001,never,54.8,10.5,5.0,90.0,Cargo\n"
        "not-a-vessel,1700000090,54.9,10.6,5.0,90.0,Cargo\n"
        "219000002,,55.0,10.7,5.0,90.0,Cargo\n"
        "219000002,1700000120,55.1,10.8\n"
        "219000002,1700000150,55.1,10.8,5.0,90.0,Cargo,extra\n"
        "219000002, 2023-01-01 00:01:00 ,55.2,10.9,nan,-nan,  \n"
    )
    for name, text in (("clean", clean), ("messy", messy), ("both", clean + messy)):
        path = tmp_path / f"{name}.csv"
        path.write_text(header + text)
        _assert_parse_matches_oracle(path, monkeypatch)
    # Header only: every column is empty.
    (tmp_path / "empty.csv").write_text(header)
    assert _assert_parse_matches_oracle(tmp_path / "empty.csv", monkeypatch).num_rows == 0


LONG_LABEL = "Cargo, hazardous category A (IMO class 1 explosives) -- reserved for future use"


def test_long_labels_survive_every_csv_entry_point(tmp_path, monkeypatch):
    """A label over 64 characters reads back whole through read_csv,
    read_csv_chunks and CsvFollower.poll; the fixed-width oracle cut
    it, and that is the only difference from it."""
    assert len(LONG_LABEL) > 64
    path = tmp_path / "long.csv"
    path.write_text(
        "MMSI,epoch,Latitude,Longitude,Ship type\n"
        f'1,0.0,54.0,10.0,"{LONG_LABEL}"\n'
        "2,30.0,54.1,10.1,Cargo\n"
    )
    expected = [LONG_LABEL.lower(), "cargo"]
    tables = {
        "read_csv": ais.read_csv(path),
        "read_csv_chunks": Table.concat(list(ais.read_csv_chunks(path, chunk_rows=1))),
        "poll": Table.concat(ais.CsvFollower(path, chunk_rows=1).poll()),
    }
    for entry, table in tables.items():
        assert table.column(schema.VESSEL_TYPE).tolist() == expected, entry
    monkeypatch.setattr(reader, "_rows_to_table", _oracle_rows_to_table)
    cut = ais.read_csv(path).column(schema.VESSEL_TYPE).tolist()
    assert cut == [LONG_LABEL[:64].lower(), "cargo"]
    for name in schema.RAW_COLUMNS[:-1]:
        assert _same_bits(
            np.asarray(tables["read_csv"].column(name)),
            np.asarray(ais.read_csv(path).column(name)),
        ), name
