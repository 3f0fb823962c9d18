"""report.dump_json against json.dumps(sort_keys=True, indent=2), with the C
encoder and with the pure-Python one that stands in where it is missing.

dump_json encodes each container of scalars, and each list of dicts of
scalars, in one encoder call, with a newline and an indent in the item
separator; every other container is laid out around its members.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.report import build_report, dump_json

from test_partition_join import chain

TEXT = st.text(max_size=6) | st.sampled_from(["},", '"', "\n", "},\n  {", "é", "\x00\x1f", " ", "{}"])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
ROWS = st.lists(st.dictionaries(TEXT, SCALARS, min_size=1, max_size=4), max_size=4)
DOCS = st.recursive(
    SCALARS | ROWS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)
BOUNDED = settings(max_examples=150, deadline=None, database=None, derandomize=True)
ENCODERS = pytest.mark.parametrize("c_encoder", [json.encoder.c_make_encoder, None], ids=["c", "python"])


def indented(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@ENCODERS
@BOUNDED
@given(DOCS)
def test_dump_json_is_json_dumps(c_encoder, doc):
    with mock.patch.object(json.encoder, "c_make_encoder", c_encoder):
        assert dump_json(doc) == indented(doc)


@ENCODERS
def test_a_report_renders_as_json_dumps(c_encoder):
    doc = build_report(chain(8))
    assert json.encoder.c_make_encoder is not None
    with mock.patch.object(json.encoder, "c_make_encoder", c_encoder):
        assert dump_json(doc) == indented(doc)
