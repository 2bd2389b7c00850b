"""Brute-force references: dense attention, split/permute tensor ops,
and a tiny random-weight transformer whose dense forward is the ground
truth for the paged serving path.

Everything here computes in fp64 and casts down at the end; tests
compare the production kernels against these references at stated
absolute tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig


class OracleShapeMismatch(ValueError):
    pass


def dense_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None,
    scale: float,
) -> np.ndarray:
    """softmax(scale * Q K^T, masked) V, computed densely in fp64.

    ``mask`` is boolean [Lq, Lk], True where attention is allowed;
    None means fully valid. Every row must keep at least one valid
    position.
    """
    q64 = np.asarray(q, dtype=np.float64)
    k64 = np.asarray(k, dtype=np.float64)
    v64 = np.asarray(v, dtype=np.float64)
    if q64.ndim != 2 or k64.ndim != 2 or v64.ndim != 2:
        raise OracleShapeMismatch("q, k, v must be 2-D")
    if k64.shape != v64.shape or q64.shape[1] != k64.shape[1]:
        raise OracleShapeMismatch(f"bad shapes q={q64.shape} k={k64.shape} v={v64.shape}")
    logits = scale * (q64 @ k64.T)
    if mask is not None:
        if mask.shape != logits.shape:
            raise OracleShapeMismatch(f"mask {mask.shape} != logits {logits.shape}")
        if not mask.any(axis=1).all():
            raise OracleShapeMismatch("every query row needs at least one valid position")
        logits = np.where(mask, logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return (probs @ v64).astype(np.float32)


def causal_mask(q_len: int, kv_len: int) -> np.ndarray:
    """Rectangle mask: row r sees kv_len history plus itself and earlier rows."""
    cols = np.arange(kv_len + q_len)
    rows = kv_len + np.arange(q_len)
    return cols[None, :] <= rows[:, None]


def split_permute_qkv(
    qkv: np.ndarray, heads: int, kv_heads: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference split+permute: [tokens, heads + 2*kvHeads, d] into
    head-major Q, K, V copies of shape [h, tokens, d]."""
    if qkv.shape[1] != heads + 2 * kv_heads:
        raise OracleShapeMismatch("QKV head axis does not match heads + 2*kvHeads")
    q = np.transpose(qkv[:, :heads, :], (1, 0, 2)).copy()
    k = np.transpose(qkv[:, heads : heads + kv_heads, :], (1, 0, 2)).copy()
    v = np.transpose(qkv[:, heads + kv_heads :, :], (1, 0, 2)).copy()
    return q, k, v


def permute_heads_to_tokens(per_head: np.ndarray) -> np.ndarray:
    """Reference output permute: [heads, tokens, d] -> [tokens, heads, d]."""
    return np.transpose(per_head, (1, 0, 2)).copy()


# ---------------------------------------------------------------------------
# Toy transformer
# ---------------------------------------------------------------------------


MAX_POSITIONS = 4096  # the toy model's context: rows of its positional table


@dataclass
class ToyModel:
    """Two-layer pre-norm transformer with random fixed weights.

    The four projection matrices per layer match the serving path's
    linear ops (fused QKV, output projection, gate+up, down), so every
    GEMM route is exercised end to end.
    """

    cfg: ModelConfig
    embed: np.ndarray
    pos: np.ndarray
    layers: list[dict[str, np.ndarray]]
    final_norm: np.ndarray
    lm_head: np.ndarray

    @classmethod
    def seeded(cls, cfg: ModelConfig, seed: int = 0, max_positions: int = MAX_POSITIONS) -> "ToyModel":
        rng = np.random.default_rng(seed)
        h = cfg.hidden_size

        def w(rows, cols):
            return rng.normal(0.0, rows**-0.5, size=(rows, cols))

        layers = []
        for _ in range(cfg.num_layers):
            layers.append(
                {
                    "norm1": 1.0 + 0.1 * rng.normal(size=h),
                    "wqkv": w(h, cfg.qkv_out),
                    "wo": w(cfg.num_heads * cfg.head_size, h),
                    "norm2": 1.0 + 0.1 * rng.normal(size=h),
                    "wgu": w(h, 2 * cfg.intermediate_size),
                    "wdown": w(cfg.intermediate_size, h),
                }
            )
        return cls(
            cfg=cfg,
            embed=rng.normal(0.0, 1.0, size=(cfg.vocab_size, h)),
            pos=_sinusoidal(max_positions, h),
            layers=layers,
            final_norm=1.0 + 0.1 * rng.normal(size=h),
            lm_head=w(h, cfg.vocab_size),
        )


def _sinusoidal(max_positions: int, dim: int) -> np.ndarray:
    pos = np.arange(max_positions)[:, None]
    i = np.arange(dim // 2)[None, :]
    angle = pos / np.power(10000.0, 2 * i / dim)
    out = np.zeros((max_positions, dim))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    scale = 1.0 / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps)
    return x * scale * weight


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def dense_forward(
    model: ToyModel,
    tokens: list[int],
    positions: list[int] | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Full-sequence fp64 forward pass; returns [len, vocab] logits.

    ``positions`` default to 0..len-1 and ``mask`` (boolean [len, len],
    True where attention is allowed) to causal.
    """
    cfg = model.cfg
    n = len(tokens)
    if positions is None:
        positions = list(range(n))
    if mask is None:
        mask = causal_mask(n, 0)
    x = model.embed[np.asarray(tokens)] + model.pos[np.asarray(positions)]
    scale = 1.0 / np.sqrt(cfg.head_size)
    group = cfg.num_heads // cfg.num_kv_heads
    for layer in model.layers:
        hidden = rms_norm(x, layer["norm1"])
        qkv = (hidden @ layer["wqkv"]).reshape(n, cfg.num_heads + 2 * cfg.num_kv_heads, cfg.head_size)
        q, k, v = split_permute_qkv(qkv, cfg.num_heads, cfg.num_kv_heads)
        per_head = np.empty((cfg.num_heads, n, cfg.head_size))
        for head in range(cfg.num_heads):
            kv_head = head // group
            per_head[head] = dense_attention(
                q[head], k[kv_head], v[kv_head], mask, scale
            ).astype(np.float64)
        attn = permute_heads_to_tokens(per_head).reshape(n, -1)
        x = x + attn @ layer["wo"]
        hidden = rms_norm(x, layer["norm2"])
        gu = hidden @ layer["wgu"]
        gate, up = np.split(gu, 2, axis=1)
        x = x + (silu(gate) * up) @ layer["wdown"]
    return (rms_norm(x, model.final_norm) @ model.lm_head).astype(np.float32)


def dense_tree_forward(
    model: ToyModel,
    context: list[int],
    tree_tokens: list[int],
    tree_parents: list[int | None],
) -> np.ndarray:
    """Dense forward over context + a speculative tree; returns logits
    for the tree nodes only. Each node attends the context plus its
    ancestors (itself included); node positions follow tree depth."""
    n_ctx = len(context)
    n_spec = len(tree_tokens)
    depth = []
    for i, p in enumerate(tree_parents):
        depth.append(0 if p is None else depth[p] + 1)
    positions = list(range(n_ctx)) + [n_ctx + d for d in depth]
    tokens = list(context) + list(tree_tokens)
    total = n_ctx + n_spec
    mask = np.zeros((total, total), dtype=bool)
    mask[:n_ctx, :n_ctx] = causal_mask(n_ctx, 0)
    anc = np.zeros((n_spec, n_spec), dtype=bool)
    for i, p in enumerate(tree_parents):
        anc[i, i] = True
        if p is not None:
            anc[i] |= anc[p]
    mask[n_ctx:, :n_ctx] = True
    mask[n_ctx:, n_ctx:] = anc
    return dense_forward(model, tokens, positions, mask)[n_ctx:]
