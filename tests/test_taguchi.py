"""Orthogonal-array validation and main-effect analysis tests."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvtlab.evaluator import LINEAR, brute_force_best, sample_evaluator
from mvtlab.genome import Candidate, SearchSpace
from mvtlab.taguchi import (
    ArrayFormatError,
    ArrayValidationError,
    OrthogonalArray,
    best_tested,
    effect_table,
    load_array,
    load_bundled_array,
    main_effect,
    parse_array,
    predict_best,
    save_array,
    validate,
)

L4_TEXT = """2 2 2
0 0 0
0 1 1
1 0 1
1 1 0
"""

BUNDLED = ("oa4_2x3", "oa9_3x4", "oa16_4x5", "oa36_base", "oa36_mixed")


@pytest.fixture(scope="module")
def nine_row():
    return load_bundled_array("oa9_3x4")


def test_load_nine_row_array(nine_row):
    assert nine_row.n_rows == 9
    assert nine_row.column_levels == (3, 3, 3, 3)


def test_load_bundled_array_accepts_only_bundled_names():
    assert load_bundled_array("oa4_2x3").n_rows == 4
    listing = "(bundled: oa16_4x5, oa36_base, oa36_mixed, oa4_2x3, oa9_3x4)"
    for name in ("nope", "/tmp/../etc", "../arrays/oa4_2x3", "oa4_2x3.txt"):
        with pytest.raises(ValueError) as info:
            load_bundled_array(name)
        assert str(info.value) == f"unknown bundled array {name!r} {listing}"


def test_load_l4():
    a = load_array(L4_TEXT)
    assert a.n_rows == 4
    assert a.column_levels == (2, 2, 2)


def test_load_rejects_broken_balance(nine_row):
    rows = list(nine_row.rows)
    rows[1] = (0, 1, 2, 2)  # column 4 now sees value 2 four times
    text = save_array(OrthogonalArray(column_levels=(3, 3, 3, 3), rows=tuple(rows)))
    with pytest.raises(ArrayValidationError, match="balance"):
        load_array(text)
    # parse_array checks the format only, so the broken design still parses
    assert np.array_equal(parse_array(text).rows, rows)


def test_load_rejects_garbage():
    with pytest.raises(ArrayFormatError):
        load_array("")
    with pytest.raises(ArrayFormatError):
        load_array("2 2\n0 x\n")
    with pytest.raises(ArrayFormatError):
        load_array("2 2\n0\n")
    with pytest.raises(ArrayFormatError):
        parse_array("2 2\n")  # levels but no rows


def test_bundled_arrays_validate():
    for name in BUNDLED:
        a = load_bundled_array(name)  # load_array re-validates on the way in
        assert validate(a).valid, name


def test_validate_reports_unbalanced_constant_column():
    a = OrthogonalArray(column_levels=(2, 2), rows=((0, 0), (1, 0)))
    report = validate(a)
    balance = next(c for c in report.checks if c.name == "balance")
    assert not balance.passed
    assert 1 in balance.offending_columns


def test_validate_reports_out_of_range_entries():
    # Negative entries too: they fail the range check, not the value counts.
    a = OrthogonalArray(column_levels=(2, 2), rows=((0, 0), (-1, 1), (1, 2), (0, 1)))
    checks = {c.name: c for c in validate(a).checks}
    assert checks["range"].offending_columns == (0, 1)
    assert checks["balance"].passed
    assert validate(a).pair_balance_info == (((0, 1), False),)


def pair_balanced(a: OrthogonalArray, i: int, j: int) -> bool:
    """Whether every combination of a value of column i with a value of
    column j occurs in equally many rows; False when either column holds a
    value outside its levels. One pair at a time, as the oracle for
    validate's table."""
    ki, kj = a.column_levels[i], a.column_levels[j]
    pair = a.rows[:, [i, j]]
    if ((pair < 0) | (pair >= (ki, kj))).any():
        return False
    counts = np.bincount(pair[:, 0] * kj + pair[:, 1], minlength=ki * kj)
    return bool(counts.min() == counts.max())


def test_pair_balance_table_equals_single_pair_checks():
    # The table is one bincount over every column pair. Column 1 of the last
    # array is out of range, in an otherwise full 2 x 3 x 2 factorial.
    rows = [[i, j, k] for i in range(2) for j in range(3) for k in range(2)]
    rows[4][1] = 5
    out_of_range = OrthogonalArray(column_levels=(2, 3, 2), rows=rows)
    arrays = [load_bundled_array(name) for name in BUNDLED] + [out_of_range]
    for a in arrays:
        expected = tuple(
            ((i, j), pair_balanced(a, i, j))
            for i in range(a.n_columns)
            for j in range(i + 1, a.n_columns)
        )
        assert validate(a).pair_balance_info == expected
    assert [balanced for _, balanced in validate(out_of_range).pair_balance_info] == [
        False, True, False,
    ]


def test_rows_are_one_read_only_int_matrix(nine_row):
    assert nine_row.rows.dtype == np.int64 and nine_row.rows.shape == (9, 4)
    with pytest.raises(ValueError):
        nine_row.rows[0, 0] = 1
    for rows in (((0.5, 0),), ((True, False),), ((0, 0, 0),), ()):
        with pytest.raises(ValueError):
            OrthogonalArray(column_levels=(2, 2), rows=rows)


def test_validate_single_column_vacuous_orthogonality():
    a = OrthogonalArray(column_levels=(2,), rows=((0,), (1,)))
    report = validate(a)
    assert report.valid


def test_save_load_round_trip(nine_row):
    assert np.array_equal(load_array(save_array(nine_row)).rows, nine_row.rows)


def test_worked_main_effect_example(nine_row):
    # Effect of variable 3 (0-based: 2) value 2 averages rows 2, 4, 9;
    # value 1 averages rows 3, 5, 7 (1-based candidate numbering).
    scores = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    assert main_effect(nine_row, scores, 2, 2) == pytest.approx((2 + 4 + 9) / 3)
    assert main_effect(nine_row, scores, 2, 1) == pytest.approx((3 + 5 + 7) / 3)


def test_main_effect_constant_scores(nine_row):
    for var in range(4):
        for value in range(3):
            assert main_effect(nine_row, [0.3] * 9, var, value) == pytest.approx(0.3)


def test_main_effect_index_errors(nine_row):
    with pytest.raises(IndexError):
        main_effect(nine_row, [0.0] * 9, 4, 0)
    with pytest.raises(IndexError):
        main_effect(nine_row, [0.0] * 9, 0, 3)
    with pytest.raises(ValueError):
        main_effect(nine_row, [0.0] * 8, 0, 0)
    with pytest.raises(ValueError):
        predict_best(nine_row, [0.0] * 8)


def test_partition_law(nine_row):
    scores = [0.03, 0.08, 0.01, 0.09, 0.04, 0.06, 0.02, 0.07, 0.05]
    for var, means in enumerate(effect_table(nine_row, scores)):
        counts = np.bincount(nine_row.rows[:, var], minlength=len(means))
        total = sum(m * c for m, c in zip(means, counts))
        assert total == pytest.approx(sum(scores))


@given(st.sampled_from(BUNDLED), st.integers(min_value=0, max_value=2**32 - 1))
def test_effect_table_equals_main_effect(name, seed):
    # The per-column bincount adds each value's scores in row order, like
    # this per-row loop, so the means agree exactly, not just approximately;
    # main_effect reads the same table.
    a = load_bundled_array(name)
    scores = np.random.default_rng(seed).random(a.n_rows).tolist()
    for var, means in enumerate(effect_table(a, scores)):
        assert len(means) == a.column_levels[var]
        for value, mean in enumerate(means.tolist()):
            total = count = 0
            for score, v in zip(scores, a.rows[:, var].tolist()):
                if v == value:
                    total += score
                    count += 1
            assert mean == total / count == main_effect(a, scores, var, value)


def test_absent_level_is_an_error():
    # Parsed but not validated: no row takes level 1 of column 0, so that
    # level has no main effect to rank.
    a = parse_array("2 2\n0 0\n0 1\n")
    for call in (lambda: predict_best(a, [0.1, 0.2]), lambda: main_effect(a, [0.1, 0.2], 0, 1)):
        with pytest.raises(ValueError, match="level 1 of column 0"):
            call()


def test_predict_best_tie_break_is_control(nine_row):
    assert predict_best(nine_row, [0.5] * 9).choices == (0, 0, 0, 0)


def test_predict_best_single_spike(nine_row):
    assert predict_best(nine_row, [1, 0, 0, 0, 0, 0, 0, 0, 0]).choices == (0, 0, 0, 0)


def test_predict_best_affine_invariance(nine_row):
    scores = [0.03, 0.08, 0.01, 0.09, 0.04, 0.06, 0.02, 0.07, 0.05]
    base = predict_best(nine_row, scores)
    shifted = predict_best(nine_row, [3.0 * s + 0.7 for s in scores])
    assert shifted == base


def test_noiseless_linear_predict_matches_oracle(nine_row):
    space = SearchSpace([3, 3, 3, 3])
    for seed in range(100):
        ev = sample_evaluator(space, LINEAR, seed=seed)
        scores = [ev.true_cr(nine_row.row_candidate(r)) for r in range(9)]
        oracle, _ = brute_force_best(ev)
        assert predict_best(nine_row, scores) == oracle


def test_best_tested(nine_row):
    assert best_tested(nine_row, [0] * 8 + [1]).choices == (2, 2, 2, 0)
    assert best_tested(nine_row, [0.5] * 9) == nine_row.row_candidate(0)
    ev = sample_evaluator(SearchSpace([3, 3, 3, 3]), LINEAR, seed=42)
    scores = [ev.true_cr(nine_row.row_candidate(r)) for r in range(9)]
    expect = max(range(9), key=lambda r: scores[r])
    assert best_tested(nine_row, scores) == nine_row.row_candidate(expect)


@pytest.fixture
def make_arrays(monkeypatch):
    """scripts/make_arrays.py, imported as a module."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "make_arrays", root / "scripts" / "make_arrays.py"
    )
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(script)
    return script


def test_merge_columns_balanced(make_arrays):
    base = load_bundled_array("oa36_base")
    # first 2-level column paired with the first 3-level column after it
    levels = base.column_levels
    col2 = levels.index(2)
    col3 = next(i for i, k in enumerate(levels) if k == 3 and i > col2)
    merged = make_arrays.merge_columns(base, col2, col3)
    assert merged.n_rows == base.n_rows
    keep = min(col2, col3)
    assert merged.column_levels[keep] == 6
    counts = np.bincount(merged.rows[:, keep])
    assert counts.tolist() == [base.n_rows // 6] * 6


def test_merge_columns_rejects_unbalanced_pair(make_arrays):
    merge_columns = make_arrays.merge_columns
    balanced = tuple((b, t) for b in range(2) for t in range(3) for _ in range(2))
    a = OrthogonalArray(column_levels=(2, 3), rows=balanced)
    assert merge_columns(a, 0, 1).column_levels == (6,)
    # Swap one row's 3-level entry: pair counts become 1/3 instead of 2/2.
    broken = ((0, 1),) + balanced[1:]
    with pytest.raises(ArrayValidationError):
        merge_columns(OrthogonalArray(column_levels=(2, 3), rows=broken), 0, 1)


def test_merge_columns_level_preconditions(make_arrays, nine_row):
    with pytest.raises(ValueError):
        make_arrays.merge_columns(nine_row, 0, 1)  # column 0 has 3 levels, not 2


def test_mixed_array_matches_mixed_space():
    a = load_bundled_array("oa36_mixed")
    assert a.n_rows == 36
    assert a.column_levels == (3, 6, 2, 3, 6, 2, 2, 6)


def test_make_arrays_regenerates_bundled_arrays(make_arrays, tmp_path, monkeypatch):
    monkeypatch.setattr(make_arrays, "OUT", tmp_path)
    make_arrays.main()
    bundled = Path(__file__).resolve().parents[1] / "src" / "mvtlab" / "arrays"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.txt" for n in BUNDLED)
    for name in BUNDLED:
        assert (tmp_path / f"{name}.txt").read_bytes() == (bundled / f"{name}.txt").read_bytes()
