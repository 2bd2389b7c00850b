"""Engine: numeric outputs against the dense oracle, and cache hygiene
after a run in either mode."""

from __future__ import annotations

import numpy as np
import pytest

from tileserve.config import ServeConfig
from tileserve.engine import Engine, EngineRequest
from tileserve.oracle import ToyModel, dense_forward
from tileserve.trace import gen_trace

# Speculative requests whose output_len often cuts an accepted path short.
TRACE = gen_trace("sharegpt_like", 4, 12, spec=(2, 3), mean_prompt=24, mean_output=8)


def run_engine(numeric: bool, check: bool = False) -> Engine:
    cfg = ServeConfig()
    engine = Engine(ToyModel.seeded(cfg.model, seed=0), cfg, numeric=numeric, check=check)
    for row in TRACE:
        spec = row["spec"]
        engine.submit(
            EngineRequest(
                req_id=row["id"],
                prompt=row["prompt"],
                output_len=row["output_len"],
                arrival=row["arrival"],
                spec=(spec["width"], spec["depth"]),
            )
        )
    engine.run()
    return engine


def test_numeric_check_passes_and_outputs_are_dense_argmax():
    engine = run_engine(numeric=True, check=True)
    assert len(engine.runtimes) == len(TRACE)
    for rid, rt in engine.runtimes.items():
        prompt = rt.request.prompt
        assert len(rt.outputs) == rt.request.output_len, rid
        ref = dense_forward(engine.model, prompt + rt.outputs[:-1])
        want = [int(np.argmax(ref[len(prompt) - 1 + i])) for i in range(len(rt.outputs))]
        assert rt.outputs == want, rid
        # Every kept logits row predicts a token the sequence holds.
        assert max(rt.logits_rows) < len(prompt) + len(rt.outputs) - 1, rid


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
def test_every_sequence_is_released(numeric):
    engine = run_engine(numeric=numeric)
    assert all(rt.done and not rt.table.blocks for rt in engine.runtimes.values())
    assert engine.cache.pool_partition()["referenced"] == set()
    assert not engine.cache._seqs
    if not numeric:
        # Simulate mode reserves rows but never writes K/V.
        assert not engine.cache.keys.any() and not engine.cache.values.any()
