"""The imputation serving layer: registry -> batch engine -> transport.

Fitted HABIT models are stateless after fit and ``.npz``-serialisable,
which makes fit-once/serve-many the natural deployment shape.  This
package provides the three pieces:

- :class:`ModelRegistry` (:mod:`repro.service.registry`) -- discovers and
  LRU-caches serialised models keyed by ``(dataset, config_hash)``;
  :meth:`ModelRegistry.refresh` folds newly arrived trips into a served
  model without refitting history.
- :class:`BatchImputationEngine` (:mod:`repro.service.engine`) -- groups
  gap requests by model and answers each group with one kernel sweep,
  timing and annotating every result with provenance.
- :class:`FollowDaemon` (:mod:`repro.service.follow`) -- tails a growing
  AIS dump and refreshes a served model on a cadence (the ``--follow``
  CLI mode), surfacing revisions through the ``/models`` feed.
- :func:`make_server` (:mod:`repro.service.http`) plus the
  ``python -m repro.service`` CLI (:mod:`repro.service.__main__`) -- a
  stdlib JSON/HTTP endpoint (``/impute``, ``/models``, ``/healthz``).

``repro.experiments.fit.fit_and_save`` publishes a freshly fitted model
into a registry from the experiment harness.  ``docs/OPERATIONS.md`` is
the operator's guide across all of it.
"""

from repro.service.engine import BatchImputationEngine
from repro.service.follow import FollowDaemon
from repro.service.http import make_server
from repro.service.registry import ModelNotFound, ModelRegistry, RegistryStats
from repro.service.schema import (
    GapRequest,
    ImputeResult,
    Provenance,
    SchemaError,
    build_config,
    parse_impute_payload,
)

__all__ = [
    "BatchImputationEngine",
    "FollowDaemon",
    "GapRequest",
    "ImputeResult",
    "ModelNotFound",
    "ModelRegistry",
    "Provenance",
    "RegistryStats",
    "SchemaError",
    "build_config",
    "make_server",
    "parse_impute_payload",
]
