"""Per-layer ledger: span self times and counter totals, by layer name.

The engine's own spans (``query.infer``, ``query.traverse``,
``query.filter``, ``query.refine``, ``inference.pair_block``,
``build.*``) are recorded when it runs with tracing on; the benchmark
adds ``bench.*`` spans around the public calls it makes. A span's self
time is its duration minus the part its children cover.
"""

from __future__ import annotations

import re
from collections import defaultdict

from repro.obs import parse_key

#: Query-path span -> layer of the "where did the time go" table.
QUERY_LAYERS = {
    "bench.execute": "other",
    "query": "other",
    "query.infer": "infer",
    "query.infer.prune": "infer",
    "query.infer.estimate": "infer",
    "inference.pair_block": "estimate",
    "query.traverse": "traverse",
    "query.filter": "filter",
    "query.refine": "refine",
    "refine.source": "refine",
}
LAYER_ORDER = ("infer", "estimate", "traverse", "filter", "refine", "other")

#: Build spans reported as ``build.<name>_s`` (totals, nested spans included).
BUILD_SPANS = ("embed", "pivots", "coordinates", "index_insert", "inverted_file")

#: Per-query counters of ``IMGRNResult.metrics``, by ledger name.
_PRUNE_STAGE = {
    "lemma3": "infer.lemma3_pruned",
    "gene_range": "traverse.pruned.gene_range",
    "bitvector_gene": "traverse.pruned.bitvector_gene",
    "bitvector_source": "traverse.pruned.bitvector_source",
    "lemma6": "traverse.pruned.lemma6",
    "leaf_edge_bound": "traverse.pruned.leaf_edge_bound",
    "lemma5": "filter.pruned.lemma5",
    "missing_edge": "filter.pruned.missing_edge",
    "topk_kth_bound": "refine.pruned.topk_kth_bound",
}
_COUNTERS = {
    "query.io_accesses": "traverse.io_accesses",
    "query.candidates": "filter.candidates",
    "query.answers": "query.answers",
    "refine.sources": "refine.sources",
    "refine.edges_evaluated": "refine.edges_evaluated",
    "refine.memo_hits": "refine.memo_hits",
    "refine.prescreened": "refine.prescreened",
    "refine.batches": "refine.batches",
}
_STAGE = re.compile(r'stage="([^"]+)"')


def annotate(spans) -> list[tuple[object, float, object]]:
    """``(span, self_seconds, parent)`` for every finished span.

    Parents are recovered from interval nesting per thread, which is
    exact for the strictly nested context-manager spans of one tracer.
    """
    out = []
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.start, -s.end))
        child_time: dict[int, float] = defaultdict(float)
        parents: dict[int, object] = {}
        stack: list = []
        for span in thread_spans:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            parent = stack[-1] if stack else None
            parents[id(span)] = parent
            if parent is not None:
                child_time[id(parent)] += span.wall_seconds
            stack.append(span)
        for span in thread_spans:
            self_seconds = span.wall_seconds - child_time[id(span)]
            out.append((span, max(0.0, self_seconds), parents[id(span)]))
    return out


def query_ledger(spans, traced_queries: int) -> dict[str, float]:
    """Per-query span metrics (ms) of ``traced_queries`` traced executes."""
    n = max(1, traced_queries)
    totals: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    estimate_in_refine = 0.0
    candidate_pairs = 0.0
    annotated = annotate(spans)
    name_of = {id(span): span.name for span, _s, _p in annotated}
    parent_of = {id(span): parent for span, _s, parent in annotated}
    for span, self_seconds, _parent in annotated:
        totals[span.name] += span.wall_seconds
        layer = QUERY_LAYERS.get(span.name)
        if layer is not None:
            layer_self[layer] += self_seconds
        if span.name == "query.filter":
            candidate_pairs += float(span.attrs.get("pairs", 0))
        if span.name == "inference.pair_block":
            ancestor = parent_of[id(span)]
            while ancestor is not None:
                if name_of[id(ancestor)] == "query.refine":
                    estimate_in_refine += span.wall_seconds
                    break
                ancestor = parent_of[id(ancestor)]
    out = {
        "infer.ms": totals["query.infer"] * 1e3 / n,
        "estimate.ms": totals["inference.pair_block"] * 1e3 / n,
        "traverse.ms": totals["query.traverse"] * 1e3 / n,
        "traverse.candidate_pairs": candidate_pairs / n,
        "filter.ms": totals["query.filter"] * 1e3 / n,
        "refine.ms": totals["query.refine"] * 1e3 / n,
        "refine.self_ms": (totals["query.refine"] - estimate_in_refine) * 1e3 / n,
        "query.ms": totals["bench.execute"] * 1e3 / n,
    }
    for layer in LAYER_ORDER:
        out[f"self.{layer}.ms"] = layer_self[layer] * 1e3 / n
    return out


def counter_ledger(deltas: list[dict]) -> dict[str, float]:
    """Per-query means of the engine counters in ``IMGRNResult.metrics``."""
    n = max(1, len(deltas))
    sums: dict[str, float] = defaultdict(float)
    for delta in deltas:
        for key, value in delta.items():
            name, labels, suffix = parse_key(key)
            if suffix:
                continue
            if name == "query.pruned_pairs":
                stage = _STAGE.search(labels)
                if stage and stage.group(1) in _PRUNE_STAGE:
                    sums[_PRUNE_STAGE[stage.group(1)]] += value
            elif name in _COUNTERS:
                sums[_COUNTERS[name]] += value
    out = {name: sums[name] / n for name in _PRUNE_STAGE.values()}
    out.update({name: sums[name] / n for name in _COUNTERS.values()})
    sources = sums["refine.sources"]
    out["refine.answer_ratio"] = sums["query.answers"] / sources if sources else 0.0
    del out["query.answers"]
    return out


def build_ledger(spans) -> dict[str, float]:
    """Seconds spent per build stage across one traced build."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.wall_seconds
    return {f"build.{name}_s": totals[f"build.{name}"] for name in BUILD_SPANS}


def time_table(ledger: dict[str, float]) -> list[str]:
    """The "where did the time go" table of one traced query phase."""
    total = sum(ledger[f"self.{layer}.ms"] for layer in LAYER_ORDER) or 1.0
    lines = [f"  {'layer':<10} {'self ms/query':>14} {'share':>7}"]
    for layer in LAYER_ORDER:
        value = ledger[f"self.{layer}.ms"]
        lines.append(f"  {layer:<10} {value:>14.3f} {value / total:>7.1%}")
    lines.append(f"  {'total':<10} {total:>14.3f}")
    return lines
