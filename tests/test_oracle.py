"""Dense references agree with each other."""

from __future__ import annotations

import numpy as np
import pytest

from tileserve.config import ModelConfig
from tileserve.oracle import ToyModel, dense_forward, dense_tree_forward
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
