"""Replays of one workload through ``tileserve.cli.run_trace``, and the
output gate.

The timed region of a replay is ``Engine.run``; set-up is everything
from the ``run_trace`` call to the start of ``Engine.run``. ``Probe``
finds both by wrapping ``Engine.run`` from outside the program.

Host times are reported at a reference machine speed. On a shared
2-core machine the same replay took anywhere from 3.8 s to 6.9 s, with
the speed changing within seconds, so a fixed calibration kernel runs
between replays and each host time is scaled by ``CAL_REF_S`` over the
kernel's mean time just before and after it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tileserve import cli
from tileserve.engine import Engine
from tileserve.oracle import dense_forward

import stats
from layers import Tracer, ablations
from workloads import WORKLOADS

SETUP_REPEATS = 11  # set-up-only runs per benchmark run, on top of one per replay
CHECK_TOL = 1e-3
CAL_REF_S = 0.2  # calibration kernel seconds that reported host times refer to
CAL_STEPS = 100_000


class _SetupDone(Exception):
    """Raised at the start of ``Engine.run`` to stop a set-up-only run."""


class Probe:
    """Wraps ``Engine.run`` to record the engine and its start and end times."""

    def __init__(self, setup_only: bool = False):
        self.engine: Engine | None = None
        self.run_start = 0.0
        self.run_end = 0.0
        self.setup_only = setup_only  # stop at the start of Engine.run
        self._original = None

    def __enter__(self) -> "Probe":
        self._original = original = Engine.__dict__["run"]

        def run(engine):
            self.engine = engine
            self.run_start = time.perf_counter()
            if self.setup_only:
                raise _SetupDone
            try:
                return original(engine)
            finally:
                self.run_end = time.perf_counter()

        Engine.run = run
        return self

    def __exit__(self, *exc) -> None:
        Engine.run = self._original


@dataclass
class Replay:
    """What one replay of one trace part left behind."""

    setup_s: float
    run_s: float
    wall_s: float
    rows: list
    digest: str
    submitted: int
    failed: int
    tokens: int  # prompt + output tokens of completed requests
    error: str | None
    engine: Engine | None = field(repr=False)


@dataclass
class Gate:
    """Outcome of checking one replay's outputs."""

    problems: list[str] = field(default_factory=list)
    surplus_rows: int = 0
    check_s: float = 0.0


class Runner:
    """Replays one workload's trace parts through ``cli.run_trace``."""

    def __init__(self, workload: str, trace_paths: list[Path], config_path: Path):
        self.workload = WORKLOADS[workload]
        self.trace_paths = trace_paths
        self.config_path = config_path

    def _call(self, part: int) -> None:
        cli.run_trace(
            str(self.trace_paths[part]),
            str(self.config_path),
            self.workload.mode,
            profile_linear=self.workload.profile_linear,
        )

    def setup_only(self) -> float:
        with Probe(setup_only=True) as probe:
            t0 = time.perf_counter()
            try:
                self._call(0)
            except _SetupDone:
                pass
        return probe.run_start - t0

    def replay(self, part: int) -> Replay:
        with Probe() as probe:
            t0 = time.perf_counter()
            error = None
            try:
                self._call(part)
            except Exception as exc:  # any error fails the replay's unfinished requests
                if probe.engine is None:
                    raise
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        engine = probe.engine
        rows = stats.request_rows(engine)
        done = {r[0] for r in stats.completed(rows)}
        tokens = sum(
            len(rt.request.prompt) + len(rt.outputs)
            for rid, rt in engine.runtimes.items()
            if str(rid) in done
        )
        return Replay(
            setup_s=probe.run_start - t0,
            run_s=probe.run_end - probe.run_start,
            wall_s=wall,
            rows=rows,
            digest=stats.model_digest(rows, engine.chunk_log),
            submitted=len(rows),
            failed=len(rows) - len(done),
            tokens=tokens,
            error=error,
            engine=engine,
        )

    def gate(self, replay: Replay) -> Gate:
        """Check the outputs of one replay, outside any timed region.

        Every request must deliver ``output_len`` tokens. In numeric mode
        every delivered token must also be the dense greedy argmax and every
        kept logits row must match the dense fp64 forward; a kept row past
        the end of that forward is counted as surplus, not compared.
        """
        gate = Gate()
        if replay.error:
            gate.problems.append(replay.error)
        for rid, _, output_len, ticks in replay.rows:
            if len(ticks) != output_len:
                gate.problems.append(f"request {rid}: {len(ticks)} of {output_len} tokens")
        if self.workload.mode != "numeric":
            return gate
        t0 = time.perf_counter()
        engine = replay.engine
        for rid, rt in engine.runtimes.items():
            seq = rt.request.prompt + rt.outputs
            ref = dense_forward(engine.model, seq[:-1])
            first = len(rt.request.prompt) - 1
            for i, token in enumerate(rt.outputs):
                if token != int(np.argmax(ref[first + i])):
                    gate.problems.append(f"request {rid}: output {i} is not the dense argmax")
            for pos, row in rt.logits_rows.items():
                if pos >= len(ref):
                    gate.surplus_rows += 1
                    continue
                err = float(np.max(np.abs(row - ref[pos])))
                if err > CHECK_TOL:
                    gate.problems.append(f"request {rid} position {pos}: max abs err {err:.2e}")
        gate.check_s = time.perf_counter() - t0
        return gate


@dataclass
class _Item:
    key: int
    value: int


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of object churn, dict
    and heap operations and small NumPy calls, like the engine's own."""
    a = (np.arange(16 * 64, dtype=np.float32).reshape(16, 64) % 13) / 13
    b = (np.arange(64 * 64, dtype=np.float32).reshape(64, 64) % 11) / 11
    heap: list = []
    table: dict = {}
    t0 = time.perf_counter()
    for i in range(CAL_STEPS):
        item = _Item(i, (i * 2654435761) % 1009)
        table[item.value] = item
        heapq.heappush(heap, (item.value, i, item))
        if len(heap) > 256:
            heapq.heappop(heap)
        if i % 16 == 0:
            np.exp(-np.abs(a @ b)).sum()
    return time.perf_counter() - t0


class SpeedScale:
    """Runs the calibration kernel around timed calls.

    ``around(fn)`` returns ``fn()`` and the factor that scales a host time
    measured in it to the reference speed: ``CAL_REF_S`` over the mean
    kernel time just before and just after the call.
    """

    def __init__(self):
        self.last = calibrate()

    def around(self, fn):
        before = self.last
        result = fn()
        self.last = calibrate()
        return result, CAL_REF_S / ((before + self.last) / 2)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: every part once, then more replays until the replays
    have taken ``seconds``. Reports the end-to-end metrics."""
    parts = len(runner.trace_paths)
    speed = SpeedScale()
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        setup_s, scale = speed.around(runner.setup_only)
        setups.append(setup_s * scale)
    rates: list[float] = []
    first: list[Replay] = []
    problems: list[str] = []
    attempted = failed = 0
    measured = 0.0
    i = 0
    while i < parts or measured < seconds:
        part = i % parts
        rep, scale = speed.around(lambda: runner.replay(part))
        measured += rep.wall_s
        setups.append(rep.setup_s * scale)
        rates.append(rep.tokens / (rep.run_s * scale))
        log(
            f"replay {i} part {part}: set-up {rep.setup_s:.3f} s, run {rep.run_s:.3f} s, "
            f"{rep.tokens / rep.run_s:.0f} tokens/s; calibration {speed.last:.3f} s"
        )
        attempted += rep.submitted
        failed += rep.failed
        if i < parts:
            problems += runner.gate(rep).problems
            rep.engine = None  # keep the rows, free the engine
            gc.collect()
            first.append(rep)
            if i == parts - 1:
                # After one pass over the parts, so that it does not depend
                # on how many replays fit into ``seconds``.
                rss_mb = peak_rss_mb()
        elif rep.digest != first[part].digest:
            problems.append(f"part {part}: replay {i} changed the modelled results")
        i += 1
    metrics = {
        "setup_s": statistics.median(setups),
        "host_tokens_per_s": statistics.median(rates),
        "peak_rss_mb": rss_mb,
    }
    try:
        metrics.update(stats.modelled_metrics([rep.rows for rep in first]))
    except ValueError as exc:  # too few completions; the gate has failed already
        problems.append(f"modelled metrics: {exc}")
    digest = hashlib.sha256("".join(rep.digest for rep in first).encode()).hexdigest()
    return {
        "problems": problems,
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _replay_traced(runner: Runner, tracer: Tracer) -> Replay:
    with tracer:
        return runner.replay(0)


def measure_layers(runner: Runner, seconds: float) -> dict:
    """Traced run on part 0: untraced and traced replays alternate until
    they have taken ``seconds``. Reports the per-layer metrics, each the
    lower median over the traced replays."""
    walls = {False: [], True: []}
    per_replay: list[dict] = []
    problems: list[str] = []
    extra: dict[str, float] = {}
    digests = set()
    attempted = failed = 0
    measured = 0.0
    speed = SpeedScale()
    rounds = 0
    while not rounds or measured < seconds:
        rounds += 1
        for traced in (False, True):
            if traced:
                tracer = Tracer()
                rep, scale = speed.around(lambda: _replay_traced(runner, tracer))
                try:
                    per_replay.append(tracer.metrics(rep.engine, rep.wall_s))
                except (ValueError, ZeroDivisionError) as exc:
                    problems.append(f"per-layer metrics: {type(exc).__name__}: {exc}")
            else:
                rep, scale = speed.around(lambda: runner.replay(0))
            walls[traced].append(rep.wall_s * scale)
            log(f"{'traced' if traced else 'untraced'} replay: {rep.wall_s:.3f} s; calibration {speed.last:.3f} s")
            measured += rep.wall_s
            attempted += rep.submitted
            failed += rep.failed
            digests.add(rep.digest)
            if traced and not extra:
                gate = runner.gate(rep)
                problems += gate.problems
                extra = {
                    "oracle.check_s": gate.check_s,
                    "oracle.surplus_rows": gate.surplus_rows,
                    **ablations(tracer, rep.engine),
                }
    if len(digests) != 1:
        problems.append("traced and untraced replays disagree on the modelled results")
    metrics = {key: statistics.median_low(m[key] for m in per_replay) for key in (per_replay or [{}])[0]}
    metrics.update(extra)
    metrics["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    return {
        "problems": problems,
        "digest": digests.pop() if len(digests) == 1 else "",
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
