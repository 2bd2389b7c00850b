"""Config: the default prefill reserve is decided by the scheduler alone,
and a model shape that no kernel can run is refused."""

from __future__ import annotations

import pytest

from tileserve import cli
from tileserve.config import ConfigError, ServeConfig, load_config
from tileserve.engine import Engine


def scheduler_reserve(cfg: ServeConfig) -> int:
    return Engine(cfg).sched.reserve


def test_default_reserve_is_a_quarter_of_the_budget():
    cfg = load_config()
    assert cfg.reserve is None
    assert scheduler_reserve(cfg) == cfg.budget // 4 == 1024


def test_budget_override_without_reserve_takes_a_quarter_of_the_new_budget():
    assert scheduler_reserve(load_config(overrides={"sched.budget": 64})) == 16
    cfg = ServeConfig()
    cfg.budget = 40
    assert scheduler_reserve(cfg) == 10


def test_explicit_reserve_is_kept():
    assert scheduler_reserve(load_config(overrides={"sched.budget": 64, "sched.reserve": 5})) == 5
    assert scheduler_reserve(ServeConfig(budget=64, reserve=0)) == 0


@pytest.mark.parametrize("reserve", [-1, 64, 65])
def test_reserve_outside_the_budget_raises(reserve):
    with pytest.raises(ConfigError, match="sched.reserve"):
        load_config(overrides={"sched.budget": 64, "sched.reserve": reserve})
    with pytest.raises(ConfigError, match="sched.reserve"):
        ServeConfig(budget=64, reserve=reserve).validate()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"model.num_kv_heads": 0}, "model.num_kv_heads"),
        ({"model.num_layers": 0}, "model.num_layers"),
        ({"model.num_layers": -2}, "model.num_layers"),
        ({"model.vocab_size": 0}, "model.vocab_size"),
        ({"model.num_heads": -4}, "model.num_heads"),
        ({"model.head_size": 0}, "model.head_size"),
        ({"model.intermediate_size": 0}, "model.intermediate_size"),
        ({"model.hidden_size": 0, "model.num_heads": 0}, "model.hidden_size"),
        # 64 heads of size 1 and one K/V head: a QKV width of 66.
        ({"model.num_heads": 64, "model.head_size": 1, "model.num_kv_heads": 1}, "model.head_size"),
    ],
)
def test_a_model_shape_no_kernel_can_run_is_refused(tmp_path, capsys, overrides, key):
    """Each shape fails validation with a ``ConfigError`` naming its key,
    and ``run`` exits 2 before it reads the trace."""
    with pytest.raises(ConfigError, match=rf"config key {key!r}"):
        load_config(overrides=overrides)
    config = tmp_path / "t.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()))
    assert cli.main(["run", "--trace", str(tmp_path / "none.jsonl"), "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config key {key!r}")
