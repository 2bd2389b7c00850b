"""Seeded workload generators: trace parts and a config file per workload.

Usage, from the root of the repository:

    PYTHONPATH=src python3 bench/workloads.py --workload NAME --seed N --out DIR

Arrivals form an open-loop schedule in modelled ticks: every request is
due at its arrival tick whatever the engine is doing. The host replays
the schedule offline, as fast as it can. The program sees only the
files written here; the seed never reaches it.
"""

from __future__ import annotations

import argparse
import math
from statistics import NormalDist
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tileserve.trace import gen_trace, write_trace

VOCAB = 128
# Independent draws for 128 requests move the tick percentiles by 10-30 %
# between seeds. Stratified draws keep them steady: every block of this
# many consecutive values takes one value from each of as many
# equal-probability strata, so no stretch of a trace runs much heavier
# than its distribution says.
STRATA_BLOCK = 8


@dataclass(frozen=True)
class Workload:
    mode: str  # "simulate" | "numeric"
    profile_linear: bool
    config: dict[str, int]
    parts: int  # independent trace parts per run; modelled metrics pool them
    why: str


WORKLOADS: dict[str, Workload] = {
    # Offline batch of long decodes (462 tokens in, 256 out, all arriving
    # within the first chunk), no prefix sharing. The cost model does most
    # of the host work (simulate_attention alone about 60 %), the numeric
    # kernels none, and the cache only appends. GEMM profiling puts real
    # simulate_linear work into set-up.
    "decode_sim": Workload(
        mode="simulate",
        profile_linear=True,
        config={},
        parts=1,
        why="simulate mode, 128 long decodes as one offline batch: the cost model dominates host time and the cache only appends",
    ),
    # Arrivals at about 70 % of modelled capacity, so most chunks mix
    # prefill, decode and verify stages (the paper's core mechanism) and
    # TTFT/TBT react to queueing. Lengths (log-normal) are stratified, not
    # independent: they reach the 0.996 quantile (prompts up to about 640
    # tokens), and every 8 consecutive requests carry one value from each
    # eighth of each distribution. Arrival gaps (exponential, mean 8000
    # ticks) are bin midpoints between about 500 and 22k ticks, so there
    # are no Poisson bursts (see smooth_arrivals). The only workload whose
    # outputs are checked against the dense oracle; run_tile dominates
    # host time and the cache sees almost no prefix hits. Four parts per
    # run pool 512 requests for the tick percentiles.
    "mixed_numeric": Workload(
        mode="numeric",
        profile_linear=False,
        config={},
        parts=4,
        why="numeric mode, stratified log-normal lengths, smoothed exponential gaps at ~70% capacity, half speculative: mixed P/D/V chunks, oracle-checked",
    ),
    # Eight shared 384-token prefixes with short unique suffixes under a
    # cache cap, so most prompt tokens hit the radix tree and the cap makes
    # nearly every new cached block evict one. Same kv_cache layer as
    # decode_sim, but reads and evictions instead of pure appends: a lookup
    # gain that slows appends shows as a loss there. Two prefixes start
    # with the same token (see CHURN_COLLIDING). Arrivals are evenly
    # spaced below capacity and the prefixes take turns: with Poisson
    # arrivals or random prefix choice, rare cache misses after a prefix is
    # evicted set the tick tails, and those moved by 30-150 % between seeds.
    # Four parts per run pool 2048 requests; they fit into one pass of the
    # timed replays, so they cost no extra run time.
    "prefix_churn": Workload(
        mode="simulate",
        profile_linear=False,
        config={
            "kv.block_size": 4,
            "kv.cache_cap_blocks": 2048,
            "kv.pool_blocks": 8192,
            "sched.budget": 512,
        },
        parts=4,
        why="simulate mode, 8 shared 384-token prefixes (two share a first token) under a cache cap: ~80% prompt hits, eviction dominates host time",
    ),
}

MIXED_COUNT = 128
MIXED_MEAN_PROMPT = 192.0
MIXED_MEAN_OUTPUT = 32.0
MIXED_SPEC = {"width": 2, "depth": 3}
MIXED_MEAN_GAP = 8000.0

CHURN_COUNT = 512
CHURN_PREFIXES = 8
CHURN_PREFIX_LEN = 384
# The shared prefixes stand for a deployment's fixed system prompts, so
# they are the same for every seed; the seed varies the suffixes. Eight
# prefixes drawn from 128 tokens start two of them with the same token
# about one time in five. The set drawn from CHURN_PREFIX_SEED has none,
# so prefix CHURN_COLLIDING[1] takes the first token of prefix
# CHURN_COLLIDING[0]: the set keeps one such pair on every seed. The radix
# tree keys children by their first token, so while one of the pair is
# cached the other is never cached and always misses; a fix to that keying
# shows here as more hit tokens, lower TTFT and fewer collision stops.
CHURN_PREFIX_SEED = 0
CHURN_COLLIDING = (1, 5)
CHURN_MEAN_SUFFIX = 32.0
CHURN_OUTPUT = 16
CHURN_GAP = 3000  # ticks between arrivals


def stratified(rng: np.random.Generator, ppf, count: int) -> list[float]:
    """``count`` values at the quantile midpoints ``(i + 0.5) / count``,
    in a seeded order where every STRATA_BLOCK consecutive values take one
    value from each of STRATA_BLOCK equal-probability strata.

    Every seed gets the same values, so the offered load is the same for
    every seed, and the largest value sits at quantile
    ``1 - 0.5 / count`` (0.996 for 128 values), so the tails are there.
    The seed decides which value of each stratum goes to which block, and
    the order inside each block.
    """
    blocks = -(-count // STRATA_BLOCK)
    quantiles = [(i + 0.5) / count for i in range(count)]
    chunks: list[list[float]] = [[] for _ in range(blocks)]
    for start in range(0, count, blocks):
        stratum = quantiles[start : start + blocks]
        for chunk, j in zip(chunks, rng.permutation(len(stratum))):
            chunk.append(stratum[j])
    out: list[float] = []
    for chunk in chunks:
        out.extend(ppf(chunk[j]) for j in rng.permutation(len(chunk)))
    return out


def exponential_ppf(mean: float):
    return lambda u: -mean * math.log1p(-u)


def lognormal_ppf(mean: float, sigma: float = 0.5):
    """Quantiles of the log-normal that ``gen_trace`` samples around ``mean``."""
    dist = NormalDist(math.log(mean) - sigma**2 / 2, sigma)
    return lambda u: math.exp(dist.inv_cdf(u))


def smooth_arrivals(rng: np.random.Generator, count: int, mean_gap: float) -> list[int]:
    """Integer arrival ticks with exponential gaps, the first at tick 0.

    Each block of STRATA_BLOCK gaps holds the midpoints of STRATA_BLOCK
    equal-probability bins, in a seeded order: gaps stay between the
    0.0625 and 0.9375 quantiles, so arrivals are smoother than Poisson.
    Gaps that reach the tails as the lengths do moved the TBT median by
    12-13 % (quartile spread over eight seeds) instead of about 4 %.
    """
    gaps: list[float] = []
    for start in range(0, count - 1, STRATA_BLOCK):
        gaps += stratified(rng, exponential_ppf(mean_gap), min(STRATA_BLOCK, count - 1 - start))
    return [0] + [int(t) for t in np.cumsum(gaps)]


def gen_requests(name: str, seed: int, part: int = 0) -> list[dict]:
    """Trace rows of one part of a workload; the same seed and part give
    the same rows."""
    if name == "decode_sim":
        return gen_trace("decode_heavy", seed_int(seed, part), 128, vocab_size=VOCAB)
    if name == "mixed_numeric":
        rng = np.random.default_rng([seed, part, 1])
        prompt_lens = stratified(rng, lognormal_ppf(MIXED_MEAN_PROMPT), MIXED_COUNT)
        output_lens = stratified(rng, lognormal_ppf(MIXED_MEAN_OUTPUT), MIXED_COUNT)
        arrivals = smooth_arrivals(rng, MIXED_COUNT, MIXED_MEAN_GAP)
        speculative = set(rng.permutation(MIXED_COUNT)[: MIXED_COUNT // 2].tolist())
        return [
            {
                "id": f"r{i:05d}",
                "arrival": arrivals[i],
                "prompt": rng.integers(0, VOCAB, size=max(1, int(prompt_lens[i]))).tolist(),
                "output_len": max(1, int(output_lens[i])),
                "spec": dict(MIXED_SPEC) if i in speculative else None,
            }
            for i in range(MIXED_COUNT)
        ]
    if name == "prefix_churn":
        prefixes = churn_prefixes()
        rng = np.random.default_rng([seed, part, 2])
        arrivals = [i * CHURN_GAP for i in range(CHURN_COUNT)]
        suffix_lens = stratified(rng, exponential_ppf(CHURN_MEAN_SUFFIX), CHURN_COUNT)
        rows = []
        for i in range(CHURN_COUNT):
            prefix = prefixes[i % CHURN_PREFIXES]
            suffix = rng.integers(0, VOCAB, size=1 + int(suffix_lens[i])).tolist()
            rows.append(
                {
                    "id": f"r{i:05d}",
                    "arrival": arrivals[i],
                    "prompt": [int(t) for t in prefix + suffix],
                    "output_len": CHURN_OUTPUT,
                    "spec": None,
                }
            )
        return rows
    raise ValueError(f"unknown workload {name!r}; pick one of {sorted(WORKLOADS)}")


def churn_prefixes() -> list[list[int]]:
    """The shared prefixes of ``prefix_churn``; one pair starts with the
    same token."""
    prefixes = np.random.default_rng(CHURN_PREFIX_SEED).integers(
        0, VOCAB, size=(CHURN_PREFIXES, CHURN_PREFIX_LEN)
    )
    first, second = CHURN_COLLIDING
    prefixes[second, 0] = prefixes[first, 0]
    return prefixes.tolist()


def seed_int(seed: int, part: int) -> int:
    """One integer seed from a workload seed and a part number."""
    return int(np.random.SeedSequence([seed, part]).generate_state(1)[0])


def write_inputs(name: str, seed: int, out_dir: Path) -> tuple[list[Path], Path]:
    """Write ``<name>.<part>.jsonl`` for every part and ``<name>.cfg``
    into ``out_dir``; returns the trace paths and the config path."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_paths = []
    for part in range(workload.parts):
        path = out_dir / f"{name}.{part}.jsonl"
        write_trace(gen_requests(name, seed, part), path)
        trace_paths.append(path)
    config_path = out_dir / f"{name}.cfg"
    lines = [f"# {name}: {workload.why}"]
    lines += [f"{key} = {value}" for key, value in workload.config.items()]
    config_path.write_text("\n".join(lines) + "\n")
    return trace_paths, config_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    trace_paths, config_path = write_inputs(args.workload, args.seed, Path(args.out))
    for path in trace_paths + [config_path]:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
