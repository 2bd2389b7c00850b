"""Request traces: JSONL parsing and seeded synthetic generators.

One request per line: {"id", "arrival", "prompt": [ids], "output_len",
"spec": {"width", "depth"} | null}.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .engine import EngineRequest


class ParseError(ValueError):
    """Malformed trace line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"trace line {line_no}: {message}")
        self.line_no = line_no


PROFILES = ("prefill_heavy", "decode_heavy", "sharegpt_like")

# Fixed input/output lengths of the two synthetic workload profiles.
PREFILL_HEAVY_LENS = (462, 16)
DECODE_HEAVY_LENS = (462, 256)

# Every int up to 2**53 is exact as a float, the engine's tick type, so an arrival is idled
# to exactly, and each count built from a trace's ints prints within Python's digit limit.
MAX_INT = 2**53


def _is_int_at_least(value, least: int) -> bool:
    """Whether a parsed JSON value is an int >= ``least``, not a bool."""
    return type(value) is int and value >= least


def _is_token_ids(prompt) -> bool:
    """Whether a parsed JSON value is a nonempty list of ints >= 0, not
    bools, in two C-level passes instead of a Python test per token."""
    return isinstance(prompt, list) and set(map(type, prompt)) == {int} and min(prompt) >= 0


def parse_trace(path: str | Path, vocab_size: int | None = None) -> list[EngineRequest]:
    """Requests of a JSONL trace. With ``vocab_size``, a prompt token id at
    or past it is refused on its line too."""
    requests: list[EngineRequest] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}")
        except ValueError:  # what json.loads raises for an integer past Python's digit limit
            raise ParseError(line_no, f"invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits")
        except RecursionError:
            raise ParseError(line_no, "invalid JSON: nested too deeply")
        if not isinstance(obj, dict):
            raise ParseError(line_no, "expected a JSON object")
        for key in ("id", "arrival", "prompt", "output_len"):
            if key not in obj:
                raise ParseError(line_no, f"missing field {key!r}")
        if type(obj["id"]) not in (str, int):  # not a bool, float, null, list or object
            raise ParseError(line_no, "id must be a string or an integer")
        req_id = str(obj["id"])
        if req_id in seen:
            raise ParseError(line_no, f"duplicate request id {req_id!r}")
        seen.add(req_id)
        prompt = obj["prompt"]
        if not _is_token_ids(prompt):
            raise ParseError(line_no, "prompt must be a nonempty list of token ids")
        if vocab_size is not None and max(prompt) >= vocab_size:
            raise ParseError(line_no, f"request {req_id}: token id {max(prompt)} beyond model.vocab_size {vocab_size}")
        if not _is_int_at_least(obj["arrival"], 0):
            raise ParseError(line_no, "arrival must be a non-negative integer")
        if not _is_int_at_least(obj["output_len"], 1):
            raise ParseError(line_no, "output_len must be a positive integer")
        spec = obj.get("spec")
        spec_cfg = None
        if spec is not None:
            if not isinstance(spec, dict) or "width" not in spec or "depth" not in spec:
                raise ParseError(line_no, 'spec must be {"width", "depth"} or null')
            spec_cfg = (spec["width"], spec["depth"])
            if not (_is_int_at_least(spec_cfg[0], 1) and _is_int_at_least(spec_cfg[1], 1)):
                raise ParseError(line_no, "spec width and depth must be positive integers")
        sizes = (obj["arrival"], obj["output_len"], *(spec_cfg or ()))
        for name, value in zip(("arrival", "output_len", "spec width", "spec depth"), sizes):
            if value > MAX_INT:
                raise ParseError(line_no, f"{name} must be at most 2**53")
        requests.append(
            EngineRequest(
                req_id=req_id, prompt=prompt, output_len=obj["output_len"], arrival=obj["arrival"], spec=spec_cfg
            )
        )
    return requests


def gen_trace(
    profile: str,
    seed: int,
    count: int,
    vocab_size: int = 128,
    spec: tuple[int, int] | None = None,
    mean_prompt: float = 64.0,
    mean_output: float = 16.0,
) -> list[dict]:
    """Generate request dicts for one of the synthetic profiles.

    ``prefill_heavy`` and ``decode_heavy`` use their fixed in/out
    lengths; ``sharegpt_like`` samples lengths from a seeded
    log-normal around the given means. Arrivals are spaced by a
    seeded geometric gap so traces are reproducible byte for byte.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; pick one of {PROFILES}")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    arrival = 0
    for i in range(count):
        if profile == "prefill_heavy":
            p_len, o_len = PREFILL_HEAVY_LENS
        elif profile == "decode_heavy":
            p_len, o_len = DECODE_HEAVY_LENS
        else:
            sigma = 0.5
            p_len = max(1, int(rng.lognormal(math.log(mean_prompt) - sigma**2 / 2, sigma)))
            o_len = max(1, int(rng.lognormal(math.log(mean_output) - sigma**2 / 2, sigma)))
        prompt = rng.integers(0, vocab_size, size=p_len).tolist()
        out.append(
            {
                "id": f"r{i:05d}",
                "arrival": arrival,
                "prompt": [int(t) for t in prompt],
                "output_len": int(o_len),
                "spec": {"width": spec[0], "depth": spec[1]} if spec else None,
            }
        )
        arrival += int(rng.geometric(0.25))
    return out


def write_trace(requests: list[dict], path: str | Path) -> None:
    with open(path, "w") as fh:
        for req in requests:
            fh.write(json.dumps(req, sort_keys=True) + "\n")
