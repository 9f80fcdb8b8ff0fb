"""Fixed sea-lane models for the synthetic DAN / KIEL / SAR areas.

Each dataset is a weighted set of :class:`RouteModel` lanes: a waypoint
polyline, the vessel class that plies it, and a cruising-speed band.
Trips sample a lane (optionally reversed), so habitual corridors emerge
across trips exactly as HABIT assumes.  Waypoints are deterministic; only
per-trip noise comes from the generator's RNG.

Areas:

- ``KIEL``: Kiel fjord out through the Great Belt into the Kattegat, plus
  a Fehmarn branch -- a long main corridor so multi-hour gaps fit.
- ``DAN``: wider Danish waters with Skagerrak/North Sea approaches.
- ``SAR``: a mixed-traffic gulf with distinct cargo / passenger lanes and
  slow zig-zag fishing grounds.
"""

from dataclasses import dataclass

__all__ = ["DATASETS", "RouteModel"]


@dataclass(frozen=True)
class RouteModel:
    """One sea lane: waypoints, traffic share, class, and speed band."""

    name: str
    waypoints: tuple
    weight: float
    vessel_type: str
    speed_lo_mps: float
    speed_hi_mps: float


_KIEL_MAIN = (
    (54.33, 10.16),
    (54.50, 10.35),
    (54.66, 10.78),
    (54.92, 10.86),
    (55.25, 10.98),
    (55.65, 10.90),
    (55.95, 11.08),
    (56.12, 11.30),
)

_KIEL_FEHMARN = (
    (54.33, 10.16),
    (54.40, 10.55),
    (54.47, 10.95),
    (54.54, 11.30),
)

_DAN_SKAGEN = (
    (57.45, 10.70),
    (57.10, 11.05),
    (56.55, 11.55),
    (56.00, 11.80),
    (55.60, 11.95),
)

_DAN_NORTHSEA = (
    (55.45, 7.70),
    (55.60, 8.00),
    (55.95, 8.25),
    (56.40, 8.15),
    (56.95, 8.35),
)

_DAN_BALTIC = (
    (54.60, 11.90),
    (54.95, 12.10),
    (55.30, 12.40),
    (55.62, 12.55),
)

_SAR_CARGO = (
    (37.45, 23.05),
    (37.60, 23.30),
    (37.80, 23.40),
    (37.94, 23.62),
)

_SAR_PASSENGER = (
    (37.94, 23.55),
    (37.75, 23.42),
    (37.55, 23.45),
    (37.42, 23.30),
    (37.35, 23.10),
)

_SAR_FISHING = (
    (37.52, 23.12),
    (37.58, 23.22),
    (37.51, 23.30),
    (37.60, 23.38),
    (37.52, 23.46),
    (37.62, 23.52),
    (37.55, 23.60),
)

#: name -> (base trip count at scale=1.0, tuple of routes)
DATASETS = {
    "KIEL": (
        600,
        (
            RouteModel("kiel-belt", _KIEL_MAIN, 0.7, "cargo", 8.5, 10.5),
            RouteModel("kiel-fehmarn", _KIEL_FEHMARN, 0.3, "tanker", 7.5, 9.5),
        ),
    ),
    "DAN": (
        2000,
        (
            RouteModel("dan-skagen", _DAN_SKAGEN, 0.45, "cargo", 8.0, 10.5),
            RouteModel("dan-northsea", _DAN_NORTHSEA, 0.35, "tanker", 7.0, 9.5),
            RouteModel("dan-baltic", _DAN_BALTIC, 0.20, "passenger", 9.0, 12.0),
        ),
    ),
    "SAR": (
        3000,
        (
            RouteModel("sar-cargo", _SAR_CARGO, 0.40, "cargo", 7.5, 9.5),
            RouteModel("sar-passenger", _SAR_PASSENGER, 0.35, "passenger", 9.0, 12.0),
            RouteModel("sar-fishing", _SAR_FISHING, 0.25, "fishing", 3.0, 5.0),
        ),
    ),
}
