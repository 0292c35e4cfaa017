"""Short runs of every regularizer give the pinned image bits.

The digests and the runs that make them live in ``scripts/pin_digests.py``;
a change that alters output bits regenerates ``tests/digests.json`` with it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pin_digests.py"
_spec = importlib.util.spec_from_file_location("pin_digests", SCRIPT)
pin_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_digests)

NAMES = [pin_digests.run_name(algorithm, levels, noisy)
         for noisy in (False, True) for algorithm, levels in pin_digests.RUNS]


@pytest.fixture(scope="module")
def pinned_and_found():
    key = pin_digests.platform_key()
    pinned = json.loads(pin_digests.DIGESTS.read_text())
    if key not in pinned:
        pytest.skip(f"no digests pinned for this platform ({key}); numpy's "
                    f"reductions may sum in another order here, so run "
                    f"scripts/pin_digests.py on a trusted build to pin them")
    return pinned[key], pin_digests.digests()


def test_every_run_is_pinned():
    pinned = json.loads(pin_digests.DIGESTS.read_text())
    assert pinned and all(sorted(runs) == sorted(NAMES) for runs in pinned.values())


@pytest.mark.parametrize("name", NAMES)
def test_final_image_matches_pinned_digest(pinned_and_found, name):
    pinned, found = pinned_and_found
    assert found[name] == pinned[name]
