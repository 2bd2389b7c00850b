"""Trace parsing: which prompts ``parse_trace`` accepts."""

from __future__ import annotations

import json

import pytest

from tileserve.trace import ParseError, parse_trace


@pytest.mark.parametrize(
    "prompt, accepted",
    [
        ([3, 0, 127], True),
        ([2**70], True),  # the vocabulary bound is checked later, against the config
        ([True, False, 1], False),  # JSON booleans are not token ids
        ([], False),
        ([1, -1], False),
        ([1, 2.0], False),
        ([1.5], False),
        ([1.5, -0.5], False),  # floats whose sum is a whole number
        ([1, float("inf")], False),
        (["1"], False),
        (["a", "b"], False),
        ([1, "a"], False),
        ([1, [2]], False),
        ([[1], [2]], False),
        ([None], False),
        ([{"t": 1}], False),
        ("12", False),
        (7, False),
        (None, False),
    ],
)
def test_prompt_must_be_a_nonempty_list_of_token_ids(tmp_path, prompt, accepted):
    path = tmp_path / "trace.jsonl"
    row = {"id": "r0", "arrival": 0, "prompt": prompt, "output_len": 2, "spec": None}
    path.write_text(json.dumps(row) + "\n")
    if accepted:
        (request,) = parse_trace(path)
        assert request.prompt == prompt
    else:
        with pytest.raises(ParseError, match="line 1: prompt must be a nonempty list of token ids"):
            parse_trace(path)
