"""Multi-process portfolio synthesis with shared precompute, adaptive
scheduling, an on-disk synthesis cache and a fault-tolerant supervised
runtime — crash isolation with retries, a hard-deadline watchdog and
checkpoint/resume from the outcome store (one heuristic instance per
worker, paper Figure 1)."""

from .cache import SynthesisCache, config_key, protocol_fingerprint
from .pool import ParallelOutcome, merge_worker_traces, synthesize_parallel
from .precompute import (
    PortfolioPrecompute,
    PrecomputeSpec,
    SharedRankArray,
    precompute_portfolio,
)
from .scheduler import CancelToken, CostModel, order_portfolio
from .storeio import StoreClaim, atomic_write_json, sweep_partials
from .transport import WorkerServer, WorkerTransport, run_worker_server

__all__ = [
    "CancelToken",
    "CostModel",
    "ParallelOutcome",
    "PortfolioPrecompute",
    "PrecomputeSpec",
    "SharedRankArray",
    "StoreClaim",
    "SynthesisCache",
    "WorkerServer",
    "WorkerTransport",
    "atomic_write_json",
    "config_key",
    "merge_worker_traces",
    "order_portfolio",
    "precompute_portfolio",
    "protocol_fingerprint",
    "run_worker_server",
    "sweep_partials",
    "synthesize_parallel",
]
