"""Every file of the golden command list keeps its pinned bytes (see
tests/golden_outputs.py, which regenerates tests/golden_outputs.txt)."""

import pytest

from golden_outputs import GOLDEN, digests, machine


def test_outputs_match_golden_digests():
    recorded = GOLDEN.read_text().splitlines()
    found = machine()
    if recorded[:len(found)] != found:
        pytest.fail("golden digests were made with "
                    f"{', '.join(recorded[:len(found)])}; this machine has "
                    f"{', '.join(found)}: regenerate them from a known-good "
                    "commit on this machine")
    want = recorded[len(found):]
    got = digests()
    changed = sorted(set(want) ^ set(got),
                     key=lambda line: line.split("  ", 1)[1])
    assert got == want, "changed outputs:\n" + "\n".join(changed)
