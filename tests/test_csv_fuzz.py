"""Mutation fuzz of the solution CSV import against the block-wise reference.

Each case exports a random solution (mixed action counts, so some mixture
fields are padding), breaks it in one way and imports it with both
``pdmg.shapley.import_solution_csv`` and ``block_csv.import_solution_csv``:
they must return the same arrays bit for bit or raise the same error.  A
field with a digit-group underscore is the one documented difference:
``int()`` and ``float()`` read it, the import refuses it and names the row.
"""

import block_csv
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import same_bits, solutions

from pdmg.shapley import SolutionFormatError, _csv_layout, export_solution_csv, import_solution_csv

pytestmark = pytest.mark.property

VALUES = ["", "abc", "#", "0.5#x", " 0.5 ", "+1", "1_0", "nan", "-inf"]


@st.composite
def mutations(draw):
    """A model, its exported solution broken in one way, and the line, column
    and new value of a replaced field (None for the other mutations)."""
    model, field, strategies = draw(solutions())
    lines = export_solution_csv(model, field, strategies).splitlines()
    kind = draw(st.sampled_from(["field", "state", "comma", "crlf", "blank"]))
    line = draw(st.integers(0, len(lines) - 1))
    parts = lines[line].split(",")
    replaced = None
    if kind in ("field", "state"):
        column = 1 if kind == "state" else draw(st.integers(0, len(parts) - 1))
        parts[column] = draw(st.sampled_from(["1.0", "1e0"] if kind == "state" else VALUES))
        replaced = line, column, parts[column]
    elif kind == "comma":
        cut = draw(st.integers(0, len(parts) - 1))
        if draw(st.booleans()):
            parts.insert(cut, "")  # one more comma
        elif len(parts) > 1:
            parts[cut : cut + 2] = ["".join(parts[cut : cut + 2])]  # one comma fewer
    lines[line] = ",".join(parts)
    if kind == "blank":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t", " \t "])))
    text = ("\r\n" if kind == "crlf" else "\n").join(lines) + "\n"
    return model, text, replaced


def outcome(importer, model, text):
    """The imported phi, mu and nu, or the class and message of the error."""
    try:
        field, strategies = importer(model, text)
    except Exception as exc:
        return type(exc), str(exc)
    return field.phi, strategies.mu, strategies.nu


def is_read(model, line, column):
    """Whether import reads the field: a data row's field that is not padding."""
    shown = _csv_layout(model)[1]
    return line > 0 and (column < 4 or shown[(line - 1) % model.n_states, column - 4])


@settings(deadline=None)
@given(mutations())
def test_import_matches_the_block_reference(case):
    model, text, replaced = case
    got = outcome(import_solution_csv, model, text)
    if replaced is not None and "_" in replaced[2]:
        line, column, _ = replaced
        if is_read(model, line, column):
            assert got[0] is SolutionFormatError
            assert got[1].startswith(f"solution CSV row {line}: ")
            assert got[1].endswith("has an underscore or a non-ASCII digit")
            return
    want = outcome(block_csv.import_solution_csv, model, text)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert not isinstance(got[0], type), got
        assert all(map(same_bits, got, want))
