"""Trace-driven runner.

``tileserve run`` ingests a JSONL request trace and executes the
serving loop, either numerically on the toy model (``--check`` checks
it row by row against a dense recompute) or cost-only on the
accelerator model, with no model weights or K/V pools to check.
``tileserve gen-trace`` writes synthetic traces. Exit codes: 0 success,
2 usage, parse or config error, a request no chunk can serve, or a file
that cannot be read or written (a missing or directory ``--trace`` or
``--config``, a ``--report``, ``--plot-csv`` or ``gen-trace --out`` path
in a missing directory or naming a directory; ``run`` checks its output
paths before it serves the trace), 3 failed oracle check,
4 K/V pool exhausted (a chunk needed more blocks than eviction could
free).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .engine import Engine, EngineRequest, OracleCheckFailure, RejectedRequest, most_kv_tokens
from .kv_cache import PoolExhausted
from .oracle import MAX_POSITIONS, ToyModel
from .trace import PROFILES, ParseError, gen_trace, parse_trace, write_trace


def run_trace(
    trace_path: str,
    config_path: str | None,
    mode: str,
    *,
    check: bool = False,
    seed: int = 0,
    profile_linear: bool = False,
) -> tuple[dict, list[EngineRequest]]:
    """Serve the trace at ``trace_path``; returns the engine's report and
    the parsed requests. The numeric model's positional table holds the
    positions the trace's requests can reach, up to the model's limit,
    past which ``Engine.submit`` refuses a request."""
    cfg = load_config(config_path)
    requests = parse_trace(trace_path, cfg.model.vocab_size)
    model = None
    if mode == "numeric":
        positions = max([1, *(most_kv_tokens(req, cfg.budget) for req in requests)])
        model = ToyModel.seeded(cfg.model, seed=seed, max_positions=min(positions, MAX_POSITIONS))
    engine = Engine(
        cfg,
        model,
        check=check,
        seed=seed,
        profile_linear=profile_linear,
    )
    for req in requests:
        engine.submit(req)
    return engine.run(), requests


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise if its
    directory is missing or it names a directory, without creating it, so
    that a run which could not write its result fails before serving."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not target.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _plot_rows(report: dict, arrivals: dict[str, int]) -> list[tuple[float, str, float]]:
    """(tick, metric, value) rows: each request's TTFT and TBT at its
    first-token tick (at the makespan when no token came), qps and the
    skip ratio at the makespan. ``arrivals`` maps request ids to their
    arrival ticks."""
    end = report["makespan_ticks"]
    rows: list[tuple[float, str, float]] = []
    for rid, stats in report["requests"].items():
        ttft = stats["ttft"]
        ts = arrivals[rid] + ttft if ttft >= 0 else end
        rows.append((ts, f"ttft.{rid}", ttft))
        rows.append((ts, f"tbt.{rid}", stats["tbt"]))
    rows.append((end, "qps", report["qps"]))
    rows.append((end, "skip_ratio", report["skip"]["skip_ratio"]))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tileserve")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay a request trace")
    run_p.add_argument("--trace", required=True)
    run_p.add_argument("--config", default=None)
    run_p.add_argument("--mode", choices=("numeric", "simulate"), default="simulate")
    run_p.add_argument("--check", action="store_true", help="numeric mode: verify rows against a dense recompute")
    run_p.add_argument("--report", default=None, help="write the JSON report here")
    run_p.add_argument("--plot-csv", default=None, help="write ts,metric,value rows here")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--profile-linear", action="store_true", help="profile GEMM orderings first")

    gen_p = sub.add_parser("gen-trace", help="generate a synthetic trace")
    gen_p.add_argument("--profile", choices=PROFILES, required=True)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--count", type=int, required=True)
    gen_p.add_argument("--vocab", type=int, default=128)
    gen_p.add_argument("--spec-width", type=int, help="speculative tree width (with --spec-depth)")
    gen_p.add_argument("--spec-depth", type=int, help="speculative tree depth (with --spec-width)")
    gen_p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.seed < 0:  # NumPy seeds its generators from ints >= 0
        parser.error(f"argument --seed: must be >= 0, not {args.seed}")

    if args.command == "gen-trace":
        if args.vocab < 1:  # token ids are drawn from [0, vocab)
            gen_p.error(f"argument --vocab: must be >= 1, not {args.vocab}")
        spec = args.spec_width, args.spec_depth
        if spec == (None, None):
            spec = None
        elif None in spec:
            gen_p.error("arguments --spec-width and --spec-depth: give both or neither")
        elif min(spec) < 1:
            gen_p.error(f"arguments --spec-width and --spec-depth: must be >= 1, not {spec[0]} and {spec[1]}")
        try:
            rows = gen_trace(args.profile, args.seed, args.count, vocab_size=args.vocab, spec=spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            write_trace(rows, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(rows)} requests to {args.out}")
        return 0

    if args.check and args.mode != "numeric":
        print("error: --check needs --mode numeric", file=sys.stderr)
        return 2
    try:
        for path in (args.report, args.plot_csv):
            if path:
                _check_writable(path)
        report, requests = run_trace(
            args.trace,
            args.config,
            args.mode,
            check=args.check,
            seed=args.seed,
            profile_linear=args.profile_linear,
        )
    except (ParseError, ConfigError, RejectedRequest, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleCheckFailure as exc:
        print(f"oracle check failed: {exc}", file=sys.stderr)
        return 3
    except PoolExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    text = json.dumps(report, indent=2, sort_keys=True)
    try:
        if args.report:
            Path(args.report).write_text(text + "\n")
        else:
            print(text)
        if args.plot_csv:
            lines = ["ts,metric,value"]
            arrivals = {req.req_id: req.arrival for req in requests}
            for ts, metric, value in _plot_rows(report, arrivals):
                lines.append(f"{ts!r},{metric},{value!r}")
            Path(args.plot_csv).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
