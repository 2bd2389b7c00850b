"""Tile-based LLM serving core at desk scale.

Hybrid prefill/decode/verify scheduling over a fixed token budget,
radix-tree prefix reuse of a block-paged K/V cache, tile decomposition
with snake load balancing, virtual-padded fixed-tile GEMM, a tiled
online-softmax attention kernel with speculative masks, and a
deterministic discrete-event model of a cube/vector/MTE accelerator.
"""

from .config import ConfigError, HwConfig, ModelConfig, ServeConfig, load_config
from .kv_cache import BlockTable, PoolExhausted, RadixKvCache
from .scheduler import Chunk, EngineRequest, RequestState, Stage, TokenScheduler, UnknownRequest
from .spec_decode import SpecTree, full_tree, tree_mask, verify_accept

__all__ = [
    "BlockTable",
    "Chunk",
    "ConfigError",
    "EngineRequest",
    "HwConfig",
    "ModelConfig",
    "PoolExhausted",
    "RadixKvCache",
    "RequestState",
    "ServeConfig",
    "SpecTree",
    "Stage",
    "TokenScheduler",
    "UnknownRequest",
    "full_tree",
    "load_config",
    "tree_mask",
    "verify_accept",
]

__version__ = "0.1.0"
