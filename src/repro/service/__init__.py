"""Supervised compile service and the resilient farm built on it.

``repro serve`` runs one long-lived daemon executing analyze/advise/
transform/compare requests on a supervised pool of worker
subprocesses, with per-request deadlines, heartbeat-based hang
detection, retry with jittered backoff, per-(op, tier, workload)
circuit breakers, persisted crash reports, and a graceful-degradation
ladder that guarantees a structured response for every request.

``repro farm`` composes daemons into the resilient compile farm: a
front-tier :class:`~repro.service.router.RouterServer` shards requests
by workload fingerprint across N daemons, health-checks and ejects
dead ones, fails over and hedges stuck requests, while a shared
:class:`~repro.service.cacheservice.CacheServer` keeps every daemon
warm on one content-addressed summary store.  Daemons drain
gracefully (the ``drain`` op / SIGTERM), so the farm hot-restarts
with zero failed requests.

Overload control lives in :mod:`repro.service.admission`: per-tenant
token-bucket quotas, a bounded weighted-fair queue (deficit
round-robin across tenants, priority lanes within a tenant), and
cost-aware reject-on-arrival with an honest ``retry_after`` derived
from the observed queue drain rate.  ``deadline_ms`` budgets propagate
end-to-end: every hop deducts its elapsed time before forwarding, and
requests whose remaining budget cannot cover the observed p50 service
time are refused immediately instead of queued.
"""

from .admission import (
    ANON_TENANT, AdmissionController, FairQueue, PRIORITY_HIGH,
    PRIORITY_LOW, PRIORITY_NORMAL, QueueItem, TokenBucket,
)
from .breaker import (
    CircuitBreaker, STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
)
from .cacheservice import (
    CACHE_OPS, CacheServer, CacheStore, RemoteCache, parse_budget,
    serve_cache,
)
from .requests import (
    COMPILE_OPS, CONTROL_OPS, LADDER, OPS, ProtocolError, STATUS_BUSY, STATUS_DEADLINE_EXCEEDED, STATUS_DEGRADED,
    STATUS_ERROR, STATUS_OK, STATUS_REJECTED, TIERS,
    busy_response, deadline_response, decode, encode, error_response,
    parse_compile, parse_control, rejected_response, response,
)
from .router import (
    ClusterConfig, Farm, FarmProc, Router, RouterPeer, RouterServer,
    ShardSpec, ShardState,
)
from .server import (
    CompileServer, IDEMPOTENT_OPS, LineServer, ServiceClient,
    single_request, wait_ready,
)
from .supervisor import Supervisor, SupervisorConfig
from .wire import (
    BoundedLineReader, DEFAULT_IDLE_TIMEOUT, DEFAULT_MAX_CONNECTIONS,
    DEFAULT_MAX_REPLY_BYTES, DEFAULT_MAX_REQUEST_BYTES,
    OversizedReplyError, PROTOCOL_VERSION, SUPPORTED_PROTOCOL_VERSIONS,
    parse_endpoints,
)

__all__ = [
    "ANON_TENANT", "AdmissionController", "FairQueue",
    "PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL", "QueueItem",
    "TokenBucket",
    "CircuitBreaker", "STATE_CLOSED", "STATE_HALF_OPEN", "STATE_OPEN",
    "CACHE_OPS", "CacheServer", "CacheStore", "RemoteCache",
    "parse_budget", "serve_cache",
    "COMPILE_OPS", "CONTROL_OPS", "LADDER", "OPS", "ProtocolError",
    "STATUS_BUSY", "STATUS_DEADLINE_EXCEEDED",
    "STATUS_DEGRADED", "STATUS_ERROR", "STATUS_OK", "STATUS_REJECTED",
    "TIERS",
    "busy_response", "deadline_response", "decode", "encode",
    "error_response", "parse_compile", "parse_control",
    "rejected_response", "response",
    "ClusterConfig", "Farm", "FarmProc", "Router", "RouterPeer",
    "RouterServer", "ShardSpec", "ShardState",
    "CompileServer", "IDEMPOTENT_OPS", "LineServer", "ServiceClient",
    "single_request", "wait_ready",
    "Supervisor", "SupervisorConfig",
    "BoundedLineReader", "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_CONNECTIONS", "DEFAULT_MAX_REPLY_BYTES",
    "DEFAULT_MAX_REQUEST_BYTES", "OversizedReplyError",
    "PROTOCOL_VERSION", "SUPPORTED_PROTOCOL_VERSIONS",
    "parse_endpoints",
]
