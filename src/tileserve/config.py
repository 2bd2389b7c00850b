"""Configuration for the serving core.

All tunables live in one flat namespace so they can be loaded from a
plain ``key = value`` text file (the same keys the CLI accepts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


#: Every weight's N must be a multiple of this, and linear orderings are
#: profiled from this M up.
QUANTUM = 16


class ConfigError(ValueError):
    """Bad or unknown configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


@dataclass
class HwConfig:
    """Rates and capacities of the modeled accelerator.

    All rates are per abstract tick; the model is self-consistent but
    intentionally fictional. ``pipe_depth`` is the number of in-flight
    tile buffers used by the L2 split rule.
    """

    core_num: int = 4
    cube_flops_per_tick: float = 4096.0
    vector_elems_per_tick: float = 512.0
    hbm_bytes_per_tick: float = 1024.0
    l2_bytes: int = 4 * 1024 * 1024
    l2_hit_bytes_per_tick: float = 8192.0
    pipe_depth: int = 2

    def validate(self) -> None:
        if self.core_num < 1:
            raise ConfigError("hw.core_num", "must be >= 1")
        for name in (
            "cube_flops_per_tick",
            "vector_elems_per_tick",
            "hbm_bytes_per_tick",
            "l2_hit_bytes_per_tick",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"hw.{name}", "rate must be > 0")
        if self.l2_bytes <= 0:
            raise ConfigError("hw.l2_bytes", "must be > 0")
        if self.pipe_depth < 2:
            raise ConfigError("hw.pipe_depth", "must be >= 2 for overlapped schedules")


@dataclass
class ModelConfig:
    """Transformer dimensions: the toy model's in numeric runs, the priced shapes in both modes."""

    vocab_size: int = 128
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 4
    num_kv_heads: int = 2
    head_size: int = 16
    intermediate_size: int = 128

    def validate(self) -> None:
        for name, value in vars(self).items():
            if value < 1:
                raise ConfigError(f"model.{name}", "must be >= 1")
        if self.num_heads * self.head_size != self.hidden_size:
            raise ConfigError("model.hidden_size", "must equal num_heads * head_size")
        if self.num_heads % self.num_kv_heads != 0:
            raise ConfigError("model.num_kv_heads", "must divide num_heads")
        if self.hidden_size % 64 != 0 or self.intermediate_size % 64 != 0:
            raise ConfigError(
                "model.hidden_size", "hidden and intermediate sizes must be multiples of 64"
            )
        if self.qkv_out % QUANTUM != 0:
            raise ConfigError(
                "model.head_size", f"the QKV width (num_heads + 2 * num_kv_heads) * head_size must be a multiple of {QUANTUM}"
            )

    @property
    def qkv_out(self) -> int:
        return (self.num_heads + 2 * self.num_kv_heads) * self.head_size


@dataclass
class ServeConfig:
    """Top-level configuration: scheduler, KV cache, tiling, hardware, model."""

    # scheduler
    budget: int = 4096
    reserve: int | None = None  # None leaves the default to TokenScheduler
    # kv cache
    kv_block_size: int = 128
    kv_pool_blocks: int = 1024
    kv_cache_cap_blocks: int = 512
    # attention tiling
    prefill_tile_size: int = 128
    # nested
    hw: HwConfig = field(default_factory=HwConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self) -> None:
        if self.budget < 1:
            raise ConfigError("sched.budget", "must be >= 1")
        if self.reserve is not None and not 0 <= self.reserve < self.budget:
            raise ConfigError("sched.reserve", "must satisfy 0 <= reserve < budget")
        if self.kv_block_size < 1:
            raise ConfigError("kv.block_size", "must be >= 1")
        if self.kv_pool_blocks < 1:
            raise ConfigError("kv.pool_blocks", "must be >= 1")
        if self.kv_cache_cap_blocks < 0:
            raise ConfigError("kv.cache_cap_blocks", "must be >= 0")
        if self.prefill_tile_size < 1:
            raise ConfigError("tile.prefill_tile_size", "must be >= 1")
        self.hw.validate()
        self.model.validate()


# Flat config-file key -> (section attribute path, type).
_KEYMAP: dict[str, tuple[str, type]] = {
    "sched.budget": ("budget", int),
    "sched.reserve": ("reserve", int),
    "kv.block_size": ("kv_block_size", int),
    "kv.pool_blocks": ("kv_pool_blocks", int),
    "kv.cache_cap_blocks": ("kv_cache_cap_blocks", int),
    "tile.prefill_tile_size": ("prefill_tile_size", int),
    "hw.core_num": ("hw.core_num", int),
    "hw.cube_flops_per_tick": ("hw.cube_flops_per_tick", float),
    "hw.vector_elems_per_tick": ("hw.vector_elems_per_tick", float),
    "hw.hbm_bytes_per_tick": ("hw.hbm_bytes_per_tick", float),
    "hw.l2_bytes": ("hw.l2_bytes", int),
    "hw.l2_hit_bytes_per_tick": ("hw.l2_hit_bytes_per_tick", float),
    "hw.pipe_depth": ("hw.pipe_depth", int),
    "model.vocab_size": ("model.vocab_size", int),
    "model.hidden_size": ("model.hidden_size", int),
    "model.num_layers": ("model.num_layers", int),
    "model.num_heads": ("model.num_heads", int),
    "model.num_kv_heads": ("model.num_kv_heads", int),
    "model.head_size": ("model.head_size", int),
    "model.intermediate_size": ("model.intermediate_size", int),
}


def parse_config_text(text: str) -> dict[str, int | float]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, int | float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line, f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYMAP:
            raise ConfigError(key, f"line {lineno}: unknown key")
        _, typ = _KEYMAP[key]
        try:
            out[key] = typ(value)
        except ValueError:
            raise ConfigError(key, f"line {lineno}: expected {typ.__name__}, got {value!r}")
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> ServeConfig:
    """Build a ServeConfig from an optional file plus overrides."""
    cfg = ServeConfig()
    flat: dict[str, int | float] = {}
    if path is not None:
        flat.update(parse_config_text(Path(path).read_text()))
    if overrides:
        for key, value in overrides.items():
            if key not in _KEYMAP:
                raise ConfigError(key, "unknown key")
            flat[key] = _KEYMAP[key][1](value)
    for key, value in flat.items():
        attr_path, _ = _KEYMAP[key]
        target = cfg
        *parents, leaf = attr_path.split(".")
        for name in parents:
            target = getattr(target, name)
        setattr(target, leaf, value)
    cfg.validate()
    return cfg
