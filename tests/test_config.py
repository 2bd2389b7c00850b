"""Config: the default prefill reserve is decided by the scheduler alone."""

from __future__ import annotations

import pytest

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
