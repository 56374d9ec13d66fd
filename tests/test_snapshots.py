"""Exact comparison of the command line and demo output with the snapshot
under ``tests/snapshots/`` (see ``tests/snapshots/regen.py``)."""

import difflib

import pytest

from snapshots import regen


@pytest.mark.parametrize("group", regen.groups())
def test_output_matches_snapshot(group):
    expected = regen.stored(group)
    actual = regen.generate(group)
    assert sorted(actual) == sorted(expected), "snapshot files added or missing"
    changed = [name for name in actual if actual[name] != expected[name]]
    if changed:
        first = changed[0]
        diff = difflib.unified_diff(
            expected[first].splitlines(), actual[first].splitlines(), first, "now", lineterm=""
        )
        pytest.fail(f"{len(changed)} changed: {changed}\n" + "\n".join(diff))
