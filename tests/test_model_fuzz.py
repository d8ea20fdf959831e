"""Mutation fuzz of the model document through the command line.

Each case applies one or two mutations to one of the demo documents: a
leaf replaced by null, a string, +-0.5, +-1e308, 1e-320, a boolean, a list,
a dict or 2**63; a deleted key; or a duplicated list entry.  ``pdmg
validate`` and ``pdmg solve --steps 20`` then run on it in process, with
every warning an error.  Each must exit 0, 1 or 2 without a traceback, and a
nonzero exit must say why: an ``error:`` line, or for ``validate`` a failed
assumption check.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from pdmg import demos
from pdmg.cli import main

DEMOS = sorted(p.stem for p in demos.MODELS_DIR.glob("*.json"))
VALUES = [None, "", "x", "1", 0.5, -0.5, 1e308, -1e308, 1e-320, True, False, [], [1.0], {}, {"value": 1.0}, 2**63]


def _paths(node, prefix=()):
    """The path of every value below ``node``, with whether it is a leaf."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,), not isinstance(child, (dict, list))
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def documents(draw):
    """A demo's name and its document with one or two mutations."""
    name = draw(st.sampled_from(DEMOS))
    doc = demos.doc(name)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if kind == "replace":
            paths = [path for path, leaf in _paths(doc) if leaf]
        else:  # a key of a dict, or an entry of a list
            holder = dict if kind == "delete" else list
            paths = [path for path, _ in _paths(doc) if isinstance(_parent(doc, path), holder)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _parent(doc, path), path[-1]
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))  # VALUES holds lists and dicts
        elif kind == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return name, doc


def run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(documents())
def test_mutated_documents_exit_as_documented(case):
    _, doc = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        model = os.path.join(tmp, "model.json")
        with open(model, "w") as fh:
            json.dump(doc, fh)
        for argv in (["validate", "--model", model], ["solve", "--model", model, "--steps", "20", "--out", tmp]):
            rc, out, err = run(argv)
            assert rc in (0, 1, 2), (argv[0], rc, err)
            if rc:
                why = err.startswith("error: ") or (argv[0] == "validate" and rc == 1 and ": FAIL (" in out)
                assert why, (argv[0], rc, out, err)
