"""The pinned slice of ``tools/differential.py``.

The digest covers ``augmenting_paths`` both ways round, the solver and both
classifiers on seeded streams, and one small run of every campaign. A change
that alters any verdict, witness or report changes it; an intended change
updates the pin and says so in CHANGES.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import differential  # noqa: E402

SLICE_DIGEST = "0a10703c026a6304747959b9afe4e9061f948dd98c696a3969d6fc40b355bbf2"


def test_slice_digest_is_pinned():
    assert differential.digest(differential.slice_records()) == SLICE_DIGEST


def test_serialization_sorts_sets_and_dicts():
    # items sort by their JSON text, where a quote comes before a digit
    assert differential.plain({0: (3,), "t": {2, 1}}) == [["t", [1, 2]], [0, [3]]]
