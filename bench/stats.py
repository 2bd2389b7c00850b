"""Percentiles, modelled-clock metrics and the model digest."""

from __future__ import annotations

import hashlib
import json
import math

MIN_TAIL = 10  # samples a reported tail percentile must leave beyond it


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank position of q."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values: list[float], q: float) -> float:
    """``percentile`` that refuses a tail too thin to report."""
    if samples_beyond(len(values), q) < MIN_TAIL:
        raise ValueError(f"p{q:g} of {len(values)} samples leaves fewer than {MIN_TAIL} beyond it")
    return percentile(values, q)


def request_rows(engine) -> list[tuple[str, int, int, list[float]]]:
    """(id, arrival, output_len, per-token ticks) of every submitted
    request in id order, including requests that were never admitted."""
    rows = {str(req.req_id): (req.arrival, req.output_len, []) for req in engine.pending}
    for rid, rt in engine.runtimes.items():
        rows[str(rid)] = (rt.request.arrival, rt.request.output_len, list(rt.token_ticks))
    return [(rid, *rows[rid]) for rid in sorted(rows)]


def completed(rows) -> list:
    """Rows of requests that delivered all ``output_len`` tokens."""
    return [r for r in rows if len(r[3]) == r[2]]


def modelled_metrics(parts: list[list]) -> dict[str, float]:
    """Modelled-clock metrics pooled over the request rows of each trace part.

    Latencies run from each request's arrival tick. Throughput counts the
    output tokens of each part from its first arrival to its last token.
    Raises ValueError when too few requests completed to report them.
    """
    ttft, e2e, gaps = [], [], []
    tokens = 0
    span = 0.0
    for rows in parts:
        done = completed(rows)
        for _, arrival, _, ticks in done:
            ttft.append(ticks[0] - arrival)
            e2e.append(ticks[-1] - arrival)
            gaps.extend(b - a for a, b in zip(ticks, ticks[1:]))
            tokens += len(ticks)
        if done:
            span += max(r[3][-1] for r in done) - min(r[1] for r in rows)
    if not span:
        raise ValueError("no request delivered a token after its arrival")
    return {
        "ttft_p50_ticks": percentile(ttft, 50),
        "ttft_p90_ticks": tail_percentile(ttft, 90),
        "tbt_p50_ticks": percentile(gaps, 50),
        "tbt_p99_ticks": tail_percentile(gaps, 99),
        "e2e_p90_ticks": tail_percentile(e2e, 90),
        "model_tokens_per_mtick": tokens / (span / 1e6),
    }


def model_digest(rows, chunk_log: list[dict]) -> str:
    """SHA-256 over every request's token ticks and the chunk log.

    Equal digests mean equal modelled results, so a host-only speed-up
    can show that it left the simulated statistics unchanged.
    """
    payload = {"requests": [[rid, arrival, ticks] for rid, arrival, _, ticks in rows], "chunks": chunk_log}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
