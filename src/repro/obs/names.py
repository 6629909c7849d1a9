"""Canonical metric and span names of the observability layer.

Every engine records the same series under these names so dashboards,
exporters and :meth:`repro.eval.counters.QueryStats.from_metrics` never
have to guess a spelling. The full taxonomy (labels, units, which stage
observes what) is documented in ``docs/observability.md``.

Counters carry an ``engine`` label (``imgrn``, ``baseline``,
``linear_scan``, ``measure_scan``); ``query.count`` additionally
carries a ``kind`` label naming the workload
(``containment`` / ``topk`` / ``similarity``), and
``query.pruned_pairs`` a ``stage`` label naming the pruning rule that
fired -- including ``missing_edge`` (more certainly-missing edges than
the kind's edge budget allows) and ``topk_kth_bound`` (top-k: upper
bound strictly below the running k-th best probability). The
``refine.*`` series belong to the refinement layer
(:class:`repro.core.refine.CandidateRefiner`) and carry the ``engine``
label; they diagnose how refinement spent its work (estimator calls,
edges obtained, cache-and-bound discards). Every ``query.*`` series is produced once,
by the shared ``execute()`` of :mod:`repro.core.query`. The
``serve.*`` series belong to :class:`repro.serve.QueryServer` and the
network daemon (:mod:`repro.serve.daemon`) and carry the wrapped
engine's label; ``serve.queries`` adds a ``status`` label (``ok`` /
``timeout`` / ``error``, plus the daemon's admission
statuses ``shed`` / ``rate_limited``).
"""

from __future__ import annotations

__all__ = [
    "QUERY_COUNT",
    "QUERY_IO",
    "QUERY_CANDIDATES",
    "QUERY_ANSWERS",
    "QUERY_PRUNED",
    "STAGE_SECONDS",
    "BUILD_SECONDS",
    "BUILD_MATRICES",
    "BUILD_POINTS",
    "BUILD_SHARDS",
    "BUILD_SHARD_SECONDS",
    "INFERENCE_PAIRS",
    "INFERENCE_CACHE_HITS",
    "INFERENCE_CACHE_MISSES",
    "INFERENCE_BLOCKS_DRAWN",
    "INFERENCE_BLOCKS_GATHERED",
    "REFINE_SOURCES",
    "REFINE_EDGES",
    "REFINE_PRESCREENED",
    "REFINE_BATCHES",
    "REFINE_SOURCE_SPAN",
    "SERVE_QUERIES",
    "SERVE_LATE_COMPLETIONS",
    "SERVE_SHED",
    "SERVE_INFLIGHT",
    "SERVE_QUEUE_DEPTH",
    "SERVE_QUERY_SECONDS",
    "SERVE_BATCH_SECONDS",
    "SERVE_REQUEST_SECONDS",
    "SERVE_QUEUE_WAIT_SECONDS",
    "STAGE_INFERENCE",
    "STAGE_RETRIEVE",
    "STAGE_REFINE",
]

# -- counters ----------------------------------------------------------
#: Queries answered (label: engine).
QUERY_COUNT = "query.count"
#: Page accesses / simulated data pages read while answering (label: engine).
QUERY_IO = "query.io_accesses"
#: Candidates surviving all pruning (label: engine).
QUERY_CANDIDATES = "query.candidates"
#: Final Definition-4 answers returned (label: engine).
QUERY_ANSWERS = "query.answers"
#: Node/gene/matrix pairs discarded by pruning (labels: engine, stage).
QUERY_PRUNED = "query.pruned_pairs"
#: Edge probabilities actually estimated (cache misses + uncached).
INFERENCE_PAIRS = "inference.pairs"
#: Candidates whose edges the refinement layer verified (label: engine).
#: Excludes candidates dropped by the gene-containment check.
REFINE_SOURCES = "refine.sources"
#: (source, query-edge) probabilities the refinement layer obtained,
#: from the estimator cache or estimated (label: engine).
REFINE_EDGES = "refine.edges_evaluated"
#: Candidates discarded by cached estimates and per-edge upper bounds
#: alone, before any Monte-Carlo estimation (label: engine).
REFINE_PRESCREENED = "refine.prescreened"
#: Estimator calls issued by the refinement layer, one per candidate
#: the prescreen leaves undecided (label: engine).
REFINE_BATCHES = "refine.batches"
#: Edge-probability cache hits / misses of the batched engine.
INFERENCE_CACHE_HITS = "inference.cache_hits"
INFERENCE_CACHE_MISSES = "inference.cache_misses"
#: Permutation blocks of the batched engine: drawn from the column's
#: random stream, or gathered from the engine's permutation store.
INFERENCE_BLOCKS_DRAWN = "inference.blocks_drawn"
INFERENCE_BLOCKS_GATHERED = "inference.blocks_gathered"
#: Matrices / index points registered during build (label: engine).
BUILD_MATRICES = "build.matrices"
BUILD_POINTS = "build.points"
#: Build shards embedded (labels: engine, worker -- the stripe that ran it).
BUILD_SHARDS = "build.shards"
#: Queries finished by the serving layer (labels: engine, status).
SERVE_QUERIES = "serve.queries"
#: Workers that completed after their per-query timeout was already
#: reported (labels: engine, status).
SERVE_LATE_COMPLETIONS = "serve.late_completions"
#: Requests the daemon refused at admission (label: reason --
#: ``queue_full`` for load shedding, ``rate_limit`` for token-bucket
#: rejections).
SERVE_SHED = "serve.shed"

# -- gauges -------------------------------------------------------------
#: Requests currently executing on daemon workers (gauge).
SERVE_INFLIGHT = "serve.inflight"
#: Requests waiting in the daemon's bounded admission queue (gauge).
SERVE_QUEUE_DEPTH = "serve.queue_depth"

# -- histograms (seconds) ----------------------------------------------
#: Per-query stage wall-clock (labels: engine, stage; see STAGE_*).
STAGE_SECONDS = "query.stage_seconds"
#: Index build wall-clock (label: engine).
BUILD_SECONDS = "build.seconds"
#: Per-shard embed wall-clock (labels: engine, worker).
BUILD_SHARD_SECONDS = "build.shard_seconds"
#: Per-served-query wall-clock, queue wait included (label: engine).
SERVE_QUERY_SECONDS = "serve.query_seconds"
#: Whole-batch wall-clock of the serving layer (label: engine).
SERVE_BATCH_SECONDS = "serve.batch_seconds"
#: Per-request wall-clock of the network daemon, accept-to-response
#: (label: status). p50/p95/p99 are estimated from its buckets.
SERVE_REQUEST_SECONDS = "serve.request_seconds"
#: Seconds an admitted daemon request waited in the admission queue
#: before a pump task took it (no labels).
SERVE_QUEUE_WAIT_SECONDS = "serve.queue_wait_seconds"

# -- span names ---------------------------------------------------------
#: Per-candidate refinement span (attributes: source, edges evaluated).
REFINE_SOURCE_SPAN = "refine.source"

# -- stage label values of STAGE_SECONDS -------------------------------
#: Query-graph inference (a sub-measure of the retrieve stage).
STAGE_INFERENCE = "inference"
#: Candidate retrieval: traversal + all pruning (the paper's "CPU time").
STAGE_RETRIEVE = "retrieve"
#: Exact refinement of surviving candidates.
STAGE_REFINE = "refine"
