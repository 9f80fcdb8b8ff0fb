"""Request/response schemas for the imputation service.

The wire format is plain JSON.  An ``/impute`` payload is either a batch::

    {"requests": [{"dataset": "DAN", "start": [lat, lng], "end": [lat, lng],
                   "id": "r0"}, ...],
     "config": {"resolution": 9}}

or the single-gap shorthand (``dataset``/``start``/``end`` at top level).
``config`` holds optional :class:`repro.core.HabitConfig` field overrides;
unknown fields are rejected rather than silently ignored.  Parsing raises
:class:`SchemaError` with a message naming the offending field; the
transport answers with its ``status``: 400, or 422 for a request field
the service no longer accepts (``typed`` and ``vessel_type``: every
dataset serves one model, so honouring neither would give a global
answer without saying so).
"""

from dataclasses import dataclass, field, fields
from math import isfinite

import numpy as np

from repro.core import HabitConfig

__all__ = [
    "GapRequest",
    "ImputeResult",
    "Provenance",
    "SchemaError",
    "build_config",
    "parse_impute_payload",
]


class SchemaError(ValueError):
    """An ``/impute`` payload does not match the request schema.

    ``status`` is the HTTP status the transport answers with.
    """

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class GapRequest:
    """One gap to impute: a dataset name plus two ``(lat, lng)`` endpoints.

    ``max_points`` caps the response polyline: when the rendered path is
    longer, it is compressed with
    :func:`repro.geo.budget.compress_rendered_path` *after* the render
    memo, so cached paths stay budget-agnostic and a large budget is an
    exact no-op.  On-chord points are dropped first, so the answer often
    carries fewer than ``max_points`` points; SQUISH-E ranks only the
    turn points left.  Must be an integer >= 2 when given.
    """

    dataset: str
    start: tuple
    end: tuple
    request_id: str = ""
    max_points: int | None = None


@dataclass(frozen=True)
class Provenance:
    """How one imputation was produced (attached to every result).

    ``cache`` records how the model was obtained: ``"hit"`` (in-memory)
    or ``"load"`` (read from the registry directory).  ``path_cache``
    records the engine's answer-cache tier: ``"hit"`` (an exact repeat
    of a cached query, answered without snapping, searching or
    rendering), ``"miss"`` (searched and
    rendered, now cached), ``"coalesced"`` (an
    identical route earlier in the same batch was searched once and this
    request rode the same kernel lane), ``"cross_batch"`` (an identical
    route submitted by a *different* concurrent request queued behind
    the same running flush and was searched once -- the
    cross-request extension of ``"coalesced"``; see
    :class:`repro.service.dispatch.BatchDispatcher`) or ``"bypass"``
    (out of coverage: the straight-line fallback, now cached so an
    exact repeat is a ``"hit"``).  ``expanded`` is
    the number of
    nodes the search that produced the route settled (0 for straight
    lines; preserved on cache hits even though the heap wasn't touched),
    so search quality is observable per served response -- the served
    contraction-hierarchy search settles an order of magnitude fewer
    than plain A*.  ``revision``
    is the model's incremental-refresh counter (1 until the first
    :meth:`repro.service.ModelRegistry.refresh`), so clients can tell
    which vintage of the model answered.  ``path_length_m`` is
    the metric length of the returned polyline -- the path-cost measure
    exposed to clients.  When a request's ``max_points`` budget actually
    compressed the response, ``points_in``/``points_out`` record the
    polyline size before/after compression (``points_out`` is often
    below the budget: on-chord points are dropped first) and
    ``max_sed_m`` the exact index-synchronised SED of the worst dropped
    rendered point; all three stay at their zero defaults when no points
    were dropped, so an over-large budget yields a response
    byte-identical to omitting it.
    """

    model_id: str
    cache: str
    method: str
    fallback: bool
    num_cells: int
    path_length_m: float
    elapsed_ms: float
    revision: int = 1
    path_cache: str = "bypass"
    expanded: int = 0
    points_in: int = 0
    points_out: int = 0
    max_sed_m: float = 0.0

    def to_dict(self):
        """Plain-dict view for JSON responses, keys in field order.

        Every field is a JSON scalar, so this reads the fields directly
        instead of paying for ``dataclasses.asdict``'s recursive copy.
        """
        return {name: getattr(self, name) for name in _PROVENANCE_FIELDS}


_PROVENANCE_FIELDS = tuple(f.name for f in fields(Provenance))


@dataclass(frozen=True)
class ImputeResult:
    """An imputed path plus its provenance, tied back to the request."""

    request: GapRequest
    lats: np.ndarray = field(repr=False)
    lngs: np.ndarray = field(repr=False)
    provenance: Provenance

    @property
    def num_points(self):
        """Number of path positions."""
        return len(self.lats)


#: HabitConfig field name -> default value, used to type-check JSON overrides.
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(HabitConfig)}


def _is_finite_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _config_value(name, value):
    """*value* checked against the JSON type of field *name*'s default.

    Nothing is coerced from another type: int fields take only a non-bool
    integer, float fields only a finite non-bool number (an integer is
    widened to float), and str fields only a string.
    """
    default = _CONFIG_DEFAULTS[name]
    if isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, kind = _is_finite_number(value), "a finite number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise SchemaError(f"config field {name!r} must be {kind}, got {value!r}")
    return float(value) if isinstance(default, float) else value


def build_config(overrides):
    """A :class:`HabitConfig` from a JSON override dict.

    Each value must already have its field's JSON type (see
    :func:`_config_value`); unknown field names, mistyped values and
    values :class:`HabitConfig` rejects (an unknown ``projection``, a
    ``resolution`` off the hex grid, a negative ``tolerance_m``) raise
    :class:`SchemaError`, so a bad config never reaches the registry.
    """
    if overrides is None:
        return HabitConfig()
    if not isinstance(overrides, dict):
        raise SchemaError("config must be a JSON object of HabitConfig overrides")
    unknown = sorted(set(overrides) - set(_CONFIG_DEFAULTS))
    if unknown:
        raise SchemaError(
            f"unknown config fields: {', '.join(unknown)}; "
            f"valid fields are {', '.join(sorted(_CONFIG_DEFAULTS))}"
        )
    kwargs = {name: _config_value(name, value) for name, value in overrides.items()}
    try:
        return HabitConfig(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"config: {exc}") from exc


def _parse_endpoint(value, where):
    """A ``(lat, lng)`` float pair from a JSON ``[lat, lng]`` array.

    Like the config fields, nothing is coerced: each coordinate must be
    a finite, non-bool JSON number (an integer too large for a float is
    rejected, not an ``OverflowError``), and the pair must lie on the
    globe.
    """
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"{where} must be a [lat, lng] pair")
    if not (_is_finite_number(value[0]) and _is_finite_number(value[1])):
        raise SchemaError(f"{where} must hold two numbers (finite, non-bool), got {value!r}")
    lat, lng = float(value[0]), float(value[1])
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lng <= 180.0):
        raise SchemaError(f"{where} out of range: lat {lat}, lng {lng}")
    return (lat, lng)


def _parse_request(item, index):
    if not isinstance(item, dict):
        raise SchemaError(f"requests[{index}] must be a JSON object")
    dataset = item.get("dataset")
    if not isinstance(dataset, str) or not dataset.strip():
        raise SchemaError(f"requests[{index}].dataset must be a non-empty string")
    for name in ("typed", "vessel_type"):
        if name in item:
            raise SchemaError(
                f"requests[{index}].{name} is not accepted: typed models were "
                "removed, and every dataset serves one model",
                status=422,
            )
    request_id = str(item.get("id", f"req-{index}"))
    max_points = item.get("max_points")
    if max_points is not None:
        if isinstance(max_points, bool) or not isinstance(max_points, int):
            raise SchemaError(
                f"requests[{index}].max_points must be an integer >= 2, "
                f"got {max_points!r}"
            )
        if max_points < 2:
            raise SchemaError(
                f"requests[{index}].max_points must be >= 2 "
                f"(both endpoints are always kept), got {max_points}"
            )
    return GapRequest(
        dataset=dataset.strip(),
        start=_parse_endpoint(item.get("start"), f"requests[{index}].start"),
        end=_parse_endpoint(item.get("end"), f"requests[{index}].end"),
        request_id=request_id,
        max_points=max_points,
    )


def parse_impute_payload(payload):
    """Validate an ``/impute`` body; returns ``(requests, config)``."""
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object")
    raw = payload.get("requests")
    if raw is None and "dataset" in payload:
        raw = [payload]  # single-gap shorthand
    if not isinstance(raw, list) or not raw:
        raise SchemaError(
            "payload must carry a non-empty 'requests' list "
            "(or top-level dataset/start/end for a single gap)"
        )
    config = build_config(payload.get("config"))
    return [_parse_request(item, i) for i, item in enumerate(raw)], config
