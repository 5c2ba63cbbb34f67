"""EXPLAIN ANALYZE for live plans: the physical tree, annotated with
the counters the delta engine maintains while serving.

The renderer consumes the *node report* of a
:class:`~repro.engine.delta.DeltaEvaluator` — one entry per physical
operator, keyed by its stable tree path — and prints the plan the way
``EXPLAIN`` does, with a live-counter annotation per node:

* ``rows`` — tuples currently in the operator's derivation-count state
  (its output set) plus its cached build rows (for an aggregate: the
  accumulator entries it holds — it caches no rows);
* ``bytes`` — the operator's estimated state memory, priced with the
  storage layout's sampled row widths;
* ``applies`` / ``time`` — cumulative ``apply_delta`` invocations and
  wall time since the state was built;
* ``Δin`` / ``Δout`` — cumulative delta rows consumed and emitted;
* ``fallbacks`` — ``NonIncrementalDelta`` raises charged to this node;
* ``access`` — the path a probe of each part of the node's state takes
  now, as the operator reports it: ``index:interval(n)`` or ``scan(n)``
  per merge-join side (which side of
  :data:`~repro.engine.indexes.INDEX_THRESHOLD` it is on),
  ``index:partition(n)`` for a difference's left side,
  ``topk:window(k)+overflow(m)`` for a top-k.

This is the reproduction-side answer to the cost breakdown of the
paper's extended version (arXiv:2001.05722, per-operator scan/compute
split): it proves *where a refresh spends its time*, per operator, on
the live system rather than in an offline experiment.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "render_explain_analyze",
    "explain_analyze_data",
    "explain_renderer",
    "format_bytes",
    "format_seconds",
]


def format_bytes(count: float) -> str:
    """``1536 -> '1.5KiB'`` — compact, unambiguous state sizes."""
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(count)}B"
            return f"{count:.1f}{unit}"
        count /= 1024.0
    return f"{count:.1f}GiB"  # pragma: no cover — exhausted above


def format_seconds(seconds: float) -> str:
    """Wall time at the precision refreshes actually have (µs-scale)."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def _node_line(entry: Dict[str, Any]) -> str:
    annotation = (
        f"rows={entry['state_rows']}"
        + (
            f"+{entry['cached_rows']} cached"
            if entry.get("cached_rows")
            else ""
        )
        + f"  bytes={format_bytes(entry['state_bytes'])}"
        + f"  applies={entry['applies']}"
        + f"  time={format_seconds(entry['apply_seconds'])}"
        + f"  Δin={entry['delta_rows_in']}"
        + f"  Δout={entry['delta_rows_out']}"
        + f"  fallbacks={entry['fallbacks']}"
    )
    access_paths = entry.get("access_paths")
    if access_paths:
        rendered = ",".join(
            f"{side}={path}" for side, path in sorted(access_paths.items())
        )
        annotation += f"  access={rendered}"
    return "  " * entry["depth"] + f"{entry['describe']}  [{annotation}]"


def render_explain_analyze(
    report: List[Dict[str, Any]],
    *,
    label: str = "",
    fingerprint: str = "",
    totals: Optional[Dict[str, Any]] = None,
    cold_reason: Optional[str] = None,
) -> str:
    """Render one node *report* (see ``DeltaEvaluator.node_report``).

    *totals* carries plan-level counters (full/delta refresh counts,
    fallback total, state bytes) for the header line; *cold_reason*
    replaces the tree when no warm operator state exists — the counters
    shown in the header still reflect the plan's history.
    """
    header = "EXPLAIN ANALYZE"
    if label:
        header += f" {label}"
    if fingerprint:
        header += f"  [fingerprint={fingerprint[:12]}]"
    lines = [header]
    if totals:
        parts = []
        for key in (
            "evaluations",
            "full_refreshes",
            "delta_refreshes",
            "delta_fallbacks",
        ):
            if key in totals:
                parts.append(f"{key}={totals[key]}")
        if "state_bytes" in totals:
            parts.append(f"state={format_bytes(totals['state_bytes'])}")
        if parts:
            lines.append("  " + "  ".join(parts))
    if not report:
        lines.append(
            "  (no warm operator state"
            + (f": {cold_reason}" if cold_reason else "")
            + " — counters above reflect past refreshes)"
        )
        return "\n".join(lines)
    for entry in report:
        lines.append(_node_line(entry))
    return "\n".join(lines)


def explain_analyze_data(
    report: List[Dict[str, Any]],
    *,
    label: str = "",
    fingerprint: str = "",
    totals: Optional[Dict[str, Any]] = None,
    cold_reason: Optional[str] = None,
) -> Dict[str, Any]:
    """The same report as plain data instead of rendered text.

    Machine-readable twin of :func:`render_explain_analyze` — identical
    inputs, but the per-node dicts pass through untouched so external
    tooling (and the ``/explain/<fingerprint>`` endpoint) never has to
    screen-scrape the text format.
    """
    return {
        "label": label,
        "fingerprint": fingerprint,
        "totals": dict(totals) if totals else None,
        "cold_reason": cold_reason,
        "nodes": [dict(entry) for entry in report],
    }


def explain_renderer(format: str) -> Callable[..., Any]:
    """The renderer of *format*: :func:`render_explain_analyze` for
    ``"text"``, :func:`explain_analyze_data` for ``"json"``.  The one
    check every ``explain_analyze(format=...)`` makes; anything else
    raises :class:`ValueError`."""
    if format == "text":
        return render_explain_analyze
    if format == "json":
        return explain_analyze_data
    raise ValueError(f"format must be 'text' or 'json', got {format!r}")
