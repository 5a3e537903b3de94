"""Every output of ``output_digests`` has the bits committed in
``tests/golden.json`` for this platform."""

import json

import pytest

import output_digests


def mismatch(golden: dict, key: str, got: dict[str, str]) -> str | None:
    """Why ``got`` fails the golden digests of ``key``, or None if it passes."""
    if key not in golden:
        return (f"tests/golden.json holds no digests for this platform ({key}); "
                f"regenerate them with: {output_digests.REGENERATE}")
    expected = golden[key]
    differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    if differ:
        return f"{len(differ)} outputs differ from tests/golden.json: " + ", ".join(differ)
    return None


def test_outputs_match_the_golden_digests():
    golden = json.loads(output_digests.GOLDEN.read_text())
    failure = mismatch(golden, output_digests.platform_key(), output_digests.compute())
    if failure:
        pytest.fail(failure)


def test_mismatch_names_every_differing_missing_and_extra_output():
    golden = {"k": {"a": "1", "b": "2", "c": "3"}}
    assert mismatch(golden, "k", {"a": "1", "b": "2", "c": "3"}) is None
    message = mismatch(golden, "k", {"a": "1", "b": "9", "d": "4"})
    assert message == "3 outputs differ from tests/golden.json: b, c, d"


def test_an_unknown_platform_fails_with_the_regeneration_command():
    message = mismatch({"k": {"a": "1"}}, "other", {"a": "1"})
    assert "(other)" in message and message.endswith(output_digests.REGENERATE)
