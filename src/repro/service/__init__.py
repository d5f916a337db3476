"""The always-on pose-recovery service.

BB-Align's deployment story is not a batch sweep — it is a vehicle (or
edge node) answering pose-recovery requests continuously, under load,
while workers crash and hang.  A request carries the sensing itself:
the ego's full scan and the partner's message at any tier.  This
package is that service, and it imports neither the simulator nor the
experiment layer (those stay test and load harnesses):

* :mod:`repro.service.core` — :class:`PoseService`: bounded admission
  (typed :class:`ServiceOverloaded` rejection), per-request dispatch
  under one in-flight bound over the warm
  :class:`~repro.runtime.pool.WorkerPool`, per-request deadlines,
  jittered-backoff retry on worker faults, and a supervisor that
  heartbeats and restarts workers.  The robustness contract: an
  admitted request *always* gets a response.
* :mod:`repro.service.config` — :class:`ServiceConfig` and the typed
  error surface.
* :mod:`repro.service.worker` — worker-side task units: a request
  runs as extraction tasks and one match task, whose answer equals
  ``BBAlign.recover`` on the same messages and stream.
  :func:`configure_worker` warms each worker's pipeline.
* :mod:`repro.service.scans` — the service's one stage-1 feature
  cache, keyed by scan content, so a scan several requests share is
  extracted once.
* :mod:`repro.service.server` — the length-prefixed TCP transport
  (:class:`ServiceServer` / :class:`ServiceClient`) speaking
  :mod:`repro.comms.envelope` frames, including the shared-memory
  scan-pair fast path (:meth:`ServiceClient.request_shm`).
* :mod:`repro.service.load` — the closed-loop load generator behind
  ``repro service-load`` and the chaos-soak benchmark.

The scan data plane itself (arena, descriptors, message packing) lives
in :mod:`repro.runtime.shm`.
"""

from repro.service.config import (
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    ServiceUnsupported,
)
from repro.service.core import PoseService
from repro.service.load import LoadSummary, run_load
from repro.service.server import (
    ServiceClient,
    ServiceServer,
    resolve_shm_request,
)
from repro.service.worker import configure_worker

__all__ = [
    "LoadSummary",
    "PoseService",
    "ServiceClient",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceServer",
    "ServiceUnsupported",
    "configure_worker",
    "resolve_shm_request",
    "run_load",
]
