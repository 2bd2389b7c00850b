"""Dense references agree with each other, and a model sized to fewer
positions has the same weights and position rows."""

from __future__ import annotations

import numpy as np
import pytest

from tileserve.config import ModelConfig
from tileserve.oracle import MAX_POSITIONS, ToyModel, _sinusoidal, dense_forward, dense_tree_forward
from tileserve.spec_decode import full_tree

MODEL = ToyModel.seeded(ModelConfig(), seed=3)


@pytest.mark.parametrize("ctx_len, depth", [(1, 1), (5, 4), (17, 9)])
def test_width_one_tree_is_the_causal_chain(ctx_len, depth):
    rng = np.random.default_rng(ctx_len * 31 + depth)
    context = [int(t) for t in rng.integers(MODEL.cfg.vocab_size, size=ctx_len)]
    chain = full_tree(7, 1, depth, lambda parent, branch: (parent * 13 + 5) % MODEL.cfg.vocab_size)
    got = dense_tree_forward(MODEL, context, list(chain.tokens), list(chain.parents))
    want = dense_forward(MODEL, context + list(chain.tokens))[ctx_len:]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [64, 128])
def test_a_shorter_positional_table_is_a_prefix_of_the_full_one(dim):
    """Rows of a table sized to a trace equal the full table's bit for bit,
    and the model's other weights do not depend on its size."""
    full = _sinusoidal(MAX_POSITIONS, dim)
    for size in (1, 17, 333, 681, 700, 701, 703, 1000, MAX_POSITIONS - 1):
        assert np.array_equal(_sinusoidal(size, dim), full[:size]), size
    small = ToyModel.seeded(ModelConfig(), seed=3, max_positions=45)
    assert np.array_equal(small.pos, MODEL.pos[:45])
    assert np.array_equal(small.lm_head, MODEL.lm_head) and np.array_equal(small.embed, MODEL.embed)
