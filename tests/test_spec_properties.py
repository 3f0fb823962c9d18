"""Random specs, malformed ones included, never escape as a traceback.

Each spec starts well-formed (a cover relation, or operation tables on up to
four elements, among them random join and meet tables of the lattice kinds)
and may carry a name, which may be stray JSON; it may then have one node
replaced by stray JSON or deleted: a wrong kind, a short row, an unknown
label, a list where a label belongs.  build_from_spec must build it or raise
CongrlabError, and `congrlab con --file` and `congrlab report --file` must
exit 0 or 2, with exactly one `error:` line when it is 2.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.algebra import build_from_spec
from congrlab.cli import main
from congrlab.errors import CongrlabError

LABELS = st.sampled_from(["0", "1", "2", "a"])
STRAY = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | LABELS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(LABELS, inner, max_size=2),
    max_leaves=6,
)
BOUNDED = settings(max_examples=120, deadline=None, database=None, derandomize=True)


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@st.composite
def specs(draw):
    elements = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    n, label = len(elements), st.sampled_from(elements)
    if draw(st.booleans()):
        spec = {
            "kind": draw(st.sampled_from(["lattice", "bounded-lattice"])),
            "elements": elements,
            "cover": draw(st.lists(st.lists(label, min_size=2, max_size=2), max_size=5)),
        }
    else:
        kind = draw(st.sampled_from(["algebra", "lattice", "bounded-lattice"]))
        row = st.lists(label, min_size=n, max_size=n)
        square = st.lists(row, min_size=n, max_size=n)
        spec = {"kind": kind, "elements": elements}
        if kind == "algebra":
            spec["operations"] = draw(st.dictionaries(st.sampled_from(["f", "g"]), row | square, max_size=2))
        else:  # lattice tables, for the check that they are a lattice's
            spec["operations"] = draw(st.fixed_dictionaries({"join": square, "meet": square}))
        if kind == "bounded-lattice":
            spec["constants"] = draw(st.fixed_dictionaries({"bot": label, "top": label}))
    if draw(st.booleans()):
        spec["name"] = draw(st.text(max_size=3) | STRAY)
    path = draw(st.sampled_from([None, *_paths(spec)]))
    if path is None:
        return spec
    if not path:
        return draw(STRAY)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(STRAY)
    return spec


@BOUNDED
@given(specs())
def test_a_spec_builds_or_raises_a_congrlab_error(spec):
    try:
        build_from_spec(spec)
    except CongrlabError:
        pass


def test_con_on_a_random_spec_exits_0_or_2(tmp_path):
    path = tmp_path / "spec.json"

    @BOUNDED
    @given(specs())
    def check(spec):
        path.write_text(json.dumps(spec))
        for verb in ("con", "report"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([verb, "--file", str(path)])
            assert code in (0, 2), (verb, spec, code)
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: "), (verb, spec)
                assert err.getvalue().count("\n") == 1, (verb, spec)

    check()
