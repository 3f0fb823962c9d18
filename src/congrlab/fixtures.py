"""Named example algebras, shipped as JSON spec files under data/.

The spec files are read as UTF-8 files in the data/ directory next to this
module, so the package must be installed as plain files: an install from a
zip archive is out of scope."""

from __future__ import annotations

import functools
import json
import os

from .algebra import FiniteAlgebra, build_from_spec
from .errors import UnknownFixture

FIXTURE_NAMES = (
    "L1",
    "L2",
    "L3",
    "L2x2",
    "L2x3cube",
    "L2timesL3",
    "D",
    "P",
    "S",
    "R",
    "T",
    "E",
    "X",
    "H",
    "R0",
    "L2osumL2x2",
)

# fixtures that are ordinal sums of smaller fixtures, bottom part first;
# used by the reports to examine how factor congruences (fail to) transport
OSUM_PARTS = {
    "S": ("D", "L2"),
    "R": ("D", "L3"),
    "T": ("L2", "D", "L2"),
    "X": ("L2x2", "D"),
    "L2osumL2x2": ("L2", "L2x2"),
}


def fixture_spec(name: str) -> dict:
    """The raw on-disk spec for a named fixture."""
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    with open(os.path.join(os.path.dirname(__file__), "data", name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def fixture(name: str) -> FiniteAlgebra:
    """Build (and memoize) a named fixture algebra."""
    return build_from_spec(fixture_spec(name))
