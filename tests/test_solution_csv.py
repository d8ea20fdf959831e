"""The solution CSV export against the row-by-row reference and its import
against the block-wise one, the column formatter against %, and the checks
import makes on every field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_csv
import rowwise_csv
from pdmg import demos
from pdmg.shapley import (
    _CSV_BLOCK,
    _FMT_CUTOVER,
    FMT,
    SolutionFormatError,
    SolverConfig,
    SolverError,
    StrategyField,
    TimeGrid,
    ValueField,
    _fmt_column,
    backward_solve,
    export_solution_csv,
    import_solution_csv,
    picard_solve,
    saddle_from_field,
)
from support import SPECIAL, finite_model, random_solution, same_bits, solutions


@pytest.mark.property
@settings(max_examples=30, deadline=None)
@given(solutions())
def test_blocks_match_the_row_by_row_reference(case):
    model, field, strategies = case
    text = export_solution_csv(model, field, strategies)
    assert text == rowwise_csv.export_solution_csv(model, field, strategies)
    field2, strategies2 = import_solution_csv(model, text)
    ref_field, ref_strategies = block_csv.import_solution_csv(model, text)
    assert same_bits(field2.phi, ref_field.phi)
    assert same_bits(strategies2.mu, ref_strategies.mu)
    assert same_bits(strategies2.nu, ref_strategies.nu)
    assert export_solution_csv(model, field2, strategies2) == text


def test_np_log_is_within_two_ulps_of_math_log():
    # the premise of export's risk_value: np.log may round otherwise than
    # libm's log, but by no more than the formatter's margin can absorb
    rng = np.random.default_rng(0)
    x = np.concatenate([
        1.0 + np.arange(-10**5, 10**5) * 2.0**-52,  # every double next to 1
        1.0 + rng.uniform(-1e-3, 1e-3, 10**5),
        rng.uniform(0.5, 2.0, 10**5),
        np.exp(rng.uniform(-708.0, 709.0, 10**5)),
        2.0 ** rng.uniform(-1022.0, 1023.0, 10**5),
    ])
    logs = np.fromiter(map(math.log, x.tolist()), float, x.size)
    assert np.all(np.sign(np.log(x)) == np.sign(logs))
    assert np.abs(np.log(x).view(np.int64) - logs.view(np.int64)).max() <= 2


def printed_phis_whose_logs_differ(rng, size, lam):
    """Printed phi values near 1 whose risk values by np.log and by math.log
    are different doubles (about 1% of them)."""
    found = []
    while len(found) < size:
        printed = np.array([float(FMT % v) for v in (1.0 + rng.uniform(-0.3, 0.3, 4096)).tolist()])
        exact = np.fromiter((math.log(p) / lam for p in printed.tolist()), float, printed.size)
        found += printed[np.log(printed) / lam != exact].tolist()
    return np.array(found[:size])


@pytest.mark.property
@settings(max_examples=10, deadline=None)
@given(
    S=st.integers(1, 3),
    n_steps=st.integers(300, 700),
    lam=st.floats(0.01, 1.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_risk_values_of_np_log_print_as_math_log(S, n_steps, lam, seed):
    # blocks of 300 rows or more print risk_value from np.log of the printed phi
    rng = np.random.default_rng(seed)
    model = finite_model([(1, 1)] * S, lam=lam)
    grid = TimeGrid(n_steps, model.horizon)
    phi = printed_phis_whose_logs_differ(rng, (n_steps + 1) * S, lam).reshape(n_steps + 1, S)
    ones = np.ones((n_steps, S, 1))
    field, strategies = ValueField(grid, phi), StrategyField(grid, ones, ones)
    assert export_solution_csv(model, field, strategies) == rowwise_csv.export_solution_csv(model, field, strategies)


def power_of_ten_or_neighbour(k, step):
    """The double nearest 10**k, or the one an ulp below or above it."""
    x = float(f"1e{k}")
    return float(np.nextafter(x, step * math.inf)) if step else x


SIGNS = st.sampled_from([-1, 1])


def log_uniform(low, high):
    return st.builds(lambda x, sign: sign * math.exp(x), st.floats(math.log(low), math.log(high)), SIGNS)


# doubles of every kind: any float (NaN, the infinities, subnormals and
# -0.0 included), log-uniform magnitudes (over all doubles, and over the
# exponents the scaling serves), decimals of 1-5 digits, 13 significant
# digits ending in 5 (a tie of the rounding to 12 digits but for the binary
# error; about the exponents the scaling serves), powers of ten and their
# neighbours, and random bit patterns
DOUBLES = st.one_of(
    st.floats(),
    log_uniform(1e-320, 1e308),
    log_uniform(1e-12, 1e35),
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-99999, 99999), st.integers(-16, 34)),
    st.builds(lambda m, e, s: s * float(f"{m}5e{e}"), st.integers(10**11, 10**12 - 1), st.integers(-25, 23), SIGNS),
    st.builds(power_of_ten_or_neighbour, st.integers(-323, 308), st.sampled_from([-1, 0, 1])),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


@pytest.mark.property
@settings(deadline=None)
@given(st.one_of(
    st.lists(DOUBLES, min_size=1, max_size=_FMT_CUTOVER - 1),
    st.lists(DOUBLES, min_size=_FMT_CUTOVER, max_size=4 * _FMT_CUTOVER),
))
def test_column_formatter_prints_as_percent(values):
    # columns shorter than the cut-over go through %, longer ones through
    # the scaled digits wherever those settle the text
    planes, printed = _fmt_column(np.array(values))
    texts = [planes[:, i].tobytes().replace(b"\0", b"").decode() for i in range(len(values))]
    assert texts == [FMT % v for v in values]
    assert same_bits(printed, np.array([float(FMT % v) for v in values]))


DEMO_SOLVES = [
    (name, scheme, n_steps)
    for name in sorted(p.stem for p in demos.MODELS_DIR.glob("*.json"))
    for scheme, steps in (("backward", (7, 200, 1000, 2000)), ("picard", (7, 200)))
    for n_steps in steps
    if (name, scheme, n_steps) != ("nonneg_ladder", "backward", 7)  # fails the CFL check
]


@pytest.mark.parametrize("name, scheme, n_steps", DEMO_SOLVES)
def test_demo_solutions_match_the_row_by_row_reference(name, scheme, n_steps):
    # phi near 1, risk values of 0 and mixtures of 0.5, which the random
    # solutions above rarely hold
    model = demos.build(name)
    config = SolverConfig(n_steps=n_steps)
    if scheme == "picard":
        field = picard_solve(model, config)
        strategies = saddle_from_field(model, field)
    else:
        field, strategies = backward_solve(model, config)
    text = export_solution_csv(model, field, strategies)
    assert text == rowwise_csv.export_solution_csv(model, field, strategies)


MIXED = [(2, 2), (1, 3), (3, 1)]


@pytest.fixture(scope="module")
def mixed_lines():
    """A 3-state mixed-width solution over four import blocks."""
    model = finite_model(MIXED)
    field, strategies = random_solution(model, _CSV_BLOCK, 7, SPECIAL, [])
    return model, export_solution_csv(model, field, strategies).splitlines()


def import_lines(model, lines):
    return import_solution_csv(model, "\n".join(lines) + "\n")


def set_field(lines, row, column, value):
    parts = lines[row].split(",")
    parts[column] = value
    lines = list(lines)
    lines[row] = ",".join(parts)
    return lines


class TestSecondBlock:
    def test_first_malformed_row_is_named(self, mixed_lines):
        model, lines = mixed_lines
        row = _CSV_BLOCK + 7
        bad = set_field(set_field(lines, row + 3, 2, "x"), row, 2, "abc")
        with pytest.raises(SolutionFormatError, match=f"row {row}: could not convert string to float: 'abc'"):
            import_lines(model, bad)

    def test_state_index_follows_the_row(self, mixed_lines):
        # row 2050 is knot 683, state 0: the block starts mid-knot
        model, lines = mixed_lines
        row = _CSV_BLOCK + 2
        assert lines[row].split(",")[1] == "0"
        with pytest.raises(SolutionFormatError, match=f"unexpected state index at row {row}$"):
            import_lines(model, set_field(lines, row, 1, "1"))

    def test_field_count_is_named(self, mixed_lines):
        model, lines = mixed_lines
        row = 2 * _CSV_BLOCK + 1
        bad = list(lines)
        bad[row] += ","
        with pytest.raises(SolutionFormatError, match=f"row {row}: expected 10 fields, got 11"):
            import_lines(model, bad)


class TestEveryField:
    def test_header_is_compared_whole(self, mixed_lines):
        model, lines = mixed_lines
        assert lines[0] == "t,state,phi,risk_value,mu_0,mu_1,mu_2,nu_0,nu_1,nu_2"
        bad = [lines[0].replace("mu_0", "zzz")] + lines[1:]
        with pytest.raises(SolutionFormatError, match="header mismatch"):
            import_lines(model, bad)

    @pytest.mark.parametrize("column", [0, 3, 4, 7])
    def test_final_knot_fields_parse(self, mixed_lines, column):
        model, lines = mixed_lines
        row = len(lines) - 3  # final knot, state 0: a 2x2 state
        with pytest.raises(SolutionFormatError, match=f"row {row}: could not convert string to float: 'abc'"):
            import_lines(model, set_field(lines, row, column, "abc"))

    @pytest.mark.parametrize("row, column, name", [(2, 5, "mu_1"), (3, 9, "nu_2"), (6, 8, "nu_1")])
    def test_padded_fields_stay_empty(self, mixed_lines, row, column, name):
        # rows 2 and 3 are the 1x3 and 3x1 states of knot 0, row 6 the 3x1 state of knot 1
        model, lines = mixed_lines
        assert lines[row].split(",")[column] == ""
        with pytest.raises(SolutionFormatError, match=f"row {row}: padded field {name} is not empty"):
            import_lines(model, set_field(lines, row, column, "0"))

    def test_hash_is_not_a_comment(self, mixed_lines):
        # row 2 is the 1x3 state of knot 0: its last field nu_2 is read
        model, lines = mixed_lines
        with pytest.raises(SolutionFormatError, match=r"row 2: could not convert string to float: '0\.5#x'"):
            import_lines(model, set_field(lines, 2, 9, "0.5#x"))

    @pytest.mark.parametrize("column, value", [(1, "0_0"), (2, "1_0.5"), (3, "1_0"), (3, "\u0661"), (1, "\u0660")])
    def test_underscores_and_non_ascii_digits_are_refused(self, mixed_lines, column, value):
        # int() and float() read these, export never writes them, and numpy's
        # tokenizer does not read them; row 4 is knot 1, state 0
        model, lines = mixed_lines
        (int if column == 1 else float)(value)
        message = f"row 4: {lines[0].split(',')[column]} '{value}' has an underscore or a non-ASCII digit"
        with pytest.raises(SolutionFormatError, match=message):
            import_lines(model, set_field(lines, 4, column, value))

    def test_t_within_tolerance_is_accepted(self, mixed_lines):
        model, lines = mixed_lines
        field, _ = import_lines(model, set_field(lines, 4, 0, repr(float(lines[4].split(",")[0]) + 5e-12)))
        assert field.grid.n_steps == _CSV_BLOCK

    @pytest.mark.parametrize("value", ["0.0005", "nan", "-inf"])
    def test_t_off_the_grid_is_a_check_failure(self, mixed_lines, value):
        model, lines = mixed_lines
        with pytest.raises(SolverError, match=r"row 4: t = \S+ is not knot 1 of the model's grid"):
            import_lines(model, set_field(lines, 4, 0, value))

    def test_other_horizon_is_a_check_failure(self, mixed_lines):
        model, lines = mixed_lines
        other = finite_model(MIXED, horizon=3.0)
        message = r"row 4: t = 0\.00048828125 is not knot 1 .*\(t = 0\.00146484375\)"
        with pytest.raises(SolverError, match=message):
            import_lines(other, lines)
