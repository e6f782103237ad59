import codecs
import gc
import io

import numpy as np
import pytest

from rankdyn.errors import (
    CsvFormatError,
    DataError,
    DomainError,
    DuplicateTimeError,
    InsufficientDataError,
)
from rankdyn.kernels import EPANECHNIKOV
from rankdyn.sample import (
    _BATCH_ROWS,
    FunctionalSample,
    _grid_smoother,
    default_presmooth_bandwidth,
    load_long_csv,
    load_wide_csv,
    pooled_std,
    presmooth,
)
from reference import naive_presmooth


def _csv(text: str):
    return io.StringIO(text)


class TestLoadLongCsv:
    def test_single_subject(self):
        s = load_long_csv(_csv("id,time,value\na,0.1,1.0\na,0.5,2.0\na,0.9,3.0\n"))
        assert s.n == 1
        assert s.times[0].tolist() == [0.1, 0.5, 0.9]
        assert s.values[0].tolist() == [1.0, 2.0, 3.0]

    def test_shuffled_rows_are_canonicalized(self):
        a = load_long_csv(_csv("id,time,value\na,0.9,3.0\na,0.1,1.0\na,0.5,2.0\n"))
        b = load_long_csv(_csv("id,time,value\na,0.1,1.0\na,0.5,2.0\na,0.9,3.0\n"))
        assert np.array_equal(a.times[0], b.times[0])
        assert np.array_equal(a.values[0], b.values[0])

    def test_nan_value_names_the_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            load_long_csv(_csv("id,time,value\na,0.1,1.0\na,0.5,NaN\na,0.9,3.0\n"))

    def test_malformed_row_names_the_line(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            load_long_csv(_csv("id,time,value\na,0.1\n"))

    def test_unparseable_time(self):
        with pytest.raises(CsvFormatError, match="time"):
            load_long_csv(_csv("id,time,value\na,zero,1.0\n"))

    def test_time_outside_domain(self):
        with pytest.raises(DomainError):
            load_long_csv(_csv("id,time,value\na,1.5,1.0\n"))

    def test_duplicate_id_time(self):
        with pytest.raises(DuplicateTimeError):
            load_long_csv(_csv("id,time,value\na,0.5,1.0\na,0.5,2.0\n"))

    def test_bad_header(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_long_csv(_csv("subject,t,y\na,0.5,1.0\n"))

    def test_empty_file(self):
        with pytest.raises(CsvFormatError):
            load_long_csv(_csv("id,time,value\n"))

    def test_subjects_keep_first_appearance_order(self):
        s = load_long_csv(_csv("id,time,value\nb,0.25,1\nb,0.75,1\na,0.25,2\na,0.75,2\n"))
        assert s.ids == ["b", "a"]

    def test_byte_stream_source(self):
        raw = io.BytesIO(b"id,time,value\na,0.25,1.0\na,0.75,2.0\n")
        s = load_long_csv(raw)
        assert s.n == 1 and s.values[0].tolist() == [1.0, 2.0]

    def test_byte_stream_is_left_open(self):
        raw = io.BytesIO(b"id,time,value\na,0.25,1.0\na,0.75,2.0\n")
        load_long_csv(raw)
        gc.collect()   # a dropped wrapper that still owned the stream would close it
        assert not raw.closed

    def test_first_bad_record_wins_over_a_later_one(self):
        # a bad value on record 3 comes before the wrong column count on record 5
        text = "id,time,value\na,0.1,1.0\na,0.5,oops\na,0.9,3.0\nb,0.5\n"
        with pytest.raises(CsvFormatError, match="line 3: cannot parse value"):
            load_long_csv(_csv(text))

    def test_record_numbers_count_blank_records(self):
        text = "id,time,value\n\na,0.1,1.0\n\na,0.5,inf\n"
        with pytest.raises(CsvFormatError, match="line 5: non-finite value"):
            load_long_csv(_csv(text))

    def test_checks_within_a_record_run_in_field_order(self):
        # empty id before a bad time; a bad value before a time outside [0, 1]
        with pytest.raises(CsvFormatError, match="line 3: empty subject id"):
            load_long_csv(_csv("id,time,value\na,0.1,1\n ,zero,1\na,zero,1\n"))
        with pytest.raises(CsvFormatError, match="line 2: cannot parse value"):
            load_long_csv(_csv("id,time,value\na,1.5,x\n"))
        with pytest.raises(DomainError, match="line 2: time 1.5"):
            load_long_csv(_csv("id,time,value\na,1.5,1\na,0.5,x\n"))

    def test_record_errors_come_before_duplicates(self):
        text = "id,time,value\na,0.5,1.0\na,0.5,2.0\nb,0.5,nan\n"
        with pytest.raises(CsvFormatError, match="line 4"):
            load_long_csv(_csv(text))

    def test_duplicate_names_the_first_subject_in_file_order(self):
        text = "id,time,value\nb,0.25,1\na,0.5,1\na,0.5,2\nb,0.25,3\n"
        with pytest.raises(DuplicateTimeError, match="'b'"):
            load_long_csv(_csv(text))

    def test_python_float_syntax_is_accepted(self):
        s = load_long_csv(_csv("id,time,value\na, 0.25 ,1_0\na,7.5e-1, 2.5 \n"))
        assert s.times[0].tolist() == [0.25, 0.75]
        assert s.values[0].tolist() == [10.0, 2.5]

    def test_mixed_grids_are_split_per_subject(self):
        text = "id,time,value\nb,0.75,4\na,0.5,1\nb,0.25,3\na,0.1,0\na,0.9,2\n"
        s = load_long_csv(_csv(text))
        assert s.ids == ["b", "a"]
        assert s.times[0].tolist() == [0.25, 0.75] and s.values[0].tolist() == [3.0, 4.0]
        assert s.times[1].tolist() == [0.1, 0.5, 0.9] and s.values[1].tolist() == [0.0, 1.0, 2.0]
        assert s.shared_grid is None

    def test_unclosed_quote_is_a_format_error(self):
        # the open quote swallows the rest of the file into one oversized field
        text = 'id,time,value\na,0.5,1.0\n"b,0.5,1.0\n' + "c,0.5,1.0\n" * 20000
        with pytest.raises(CsvFormatError, match="line 3: field larger than field limit"):
            load_long_csv(_csv(text))


class TestLoadWideCsv:
    def test_rows_are_sorted_by_time(self):
        s = load_wide_csv(_csv("time,a,b\n0.75,2,4\n\n0.25, 1 ,3\n"))
        assert s.ids == ["a", "b"]
        assert s.shared_grid.tolist() == [0.25, 0.75]
        assert s.value_matrix().tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_wrong_column_count_names_the_line(self):
        with pytest.raises(CsvFormatError, match="line 3: expected 3 columns, got 2"):
            load_wide_csv(_csv("time,a,b\n0.25,1,2\n0.75,1\n"))

    def test_unparseable_time(self):
        with pytest.raises(CsvFormatError, match="line 2: cannot parse time 'zero'"):
            load_wide_csv(_csv("time,a\nzero,1\n"))

    def test_time_outside_domain_comes_before_a_bad_value(self):
        with pytest.raises(DomainError, match="line 2: time 1.5 outside"):
            load_wide_csv(_csv("time,a,b\n1.5,x,1\n"))

    def test_non_finite_value_names_the_line(self):
        with pytest.raises(CsvFormatError, match="line 3: non-finite value 'nan'"):
            load_wide_csv(_csv("time,a,b\n0.25,1,2\n0.75,3,nan\n"))

    def test_first_bad_record_wins_over_a_later_one(self):
        text = "time,a,b\n0.25,1,oops\n0.5,1,2\n0.75,1\n"
        with pytest.raises(CsvFormatError, match="line 2: cannot parse value 'oops'"):
            load_wide_csv(_csv(text))

    def test_record_numbers_count_blank_records(self):
        with pytest.raises(CsvFormatError, match="line 5: non-finite time 'inf'"):
            load_wide_csv(_csv("time,a\n\n0.25,1\n\ninf,2\n"))

    def test_duplicate_time_rows(self):
        with pytest.raises(DuplicateTimeError):
            load_wide_csv(_csv("time,a\n0.5,1\n0.5,2\n"))

    def test_bad_header_and_no_rows(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_wide_csv(_csv("t,a\n0.5,1\n"))
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_wide_csv(_csv("time,a\n\n"))


def _long_records(count: int) -> list[str]:
    """``count`` good long-format records: subjects of 50 points on the grid {j/50}."""
    return [f"s{k // 50},{(k % 50 + 1) / 50!r},1.0" for k in range(count)]


class TestErrorsAcrossBatches:
    """Error order and record numbers when the records span several read batches."""

    def test_unclosed_quote_beats_an_earlier_bad_value(self):
        # a bad value on line 3; an open quote a batch later swallows the rest of the file
        lines = ["id,time,value", "a,0.1,1.0", "a,0.5,oops", *_long_records(_BATCH_ROWS),
                 '"b,0.5,1.0', *["c,0.5,1.0"] * 20000]
        with pytest.raises(CsvFormatError, match=f"line {_BATCH_ROWS + 4}: field larger than field limit"):
            load_long_csv(_csv("\n".join(lines) + "\n"))

    def test_invalid_utf8_beats_an_earlier_bad_value(self):
        lines = ["id,time,value", "a,0.1,1.0", "a,0.5,oops", *_long_records(_BATCH_ROWS)]
        raw = ("\n".join(lines) + "\n").encode("utf-8") + b"b\xe9,0.5,1.0\n"
        with pytest.raises(CsvFormatError, match="not valid UTF-8"):
            load_long_csv(io.BytesIO(raw))

    @pytest.mark.parametrize("wide", [False, True], ids=["long", "wide"])
    def test_first_bad_record_in_a_later_batch_counts_blank_records(self, wide):
        count = _BATCH_ROWS + 500
        if wide:
            header, good = "time,a,b", [f"{(k + 1) / count!r},1.0,2.0" for k in range(count)]
        else:
            header, good = "id,time,value", _long_records(count)
        lines = []
        for k, record in enumerate(good):
            if k % 1000 == 0:
                lines.append("")
            lines.append(record)
        bad = len(lines) - 100
        assert bad > _BATCH_ROWS and lines[bad]
        lines[bad] = "0.5,1.0,oops"   # a bad value in either format
        lines.append("0.5,1.0")        # a later record of the wrong width
        load = load_wide_csv if wide else load_long_csv
        # the header is line 1, lines[0] line 2
        with pytest.raises(CsvFormatError, match=f"line {bad + 2}: cannot parse value 'oops'"):
            load(_csv("\n".join([header, *lines]) + "\n"))


class TestEncoding:
    LONG = "id,time,value\nb,0.75,4.0\na,0.25,1.0\na,0.75,2.0\nb,0.25,3.0\n"
    WIDE = "time,a,b\n0.75,2.0,4.0\n0.25,1.0,3.0\n"

    @pytest.mark.parametrize("load, text", [(load_long_csv, LONG), (load_wide_csv, WIDE)])
    def test_byte_order_mark_is_ignored(self, load, text, tmp_path):
        raw = text.encode("utf-8")
        loaded = []
        for k, data in enumerate([raw, codecs.BOM_UTF8 + raw]):
            path = tmp_path / f"in{k}.csv"
            path.write_bytes(data)
            loaded += [load(str(path)), load(io.BytesIO(data))]
        first = loaded[0]
        for s in loaded[1:]:
            assert s.ids == first.ids
            for a, b in zip(s.times + s.values, first.times + first.values):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("load, raw", [
        (load_long_csv, b"id,time,value\nb\xe9,0.5,1.0\n"),
        (load_wide_csv, b"time,a\n0.5,1.0\n0.75,\xff\n"),
    ])
    def test_non_utf8_bytes_are_a_format_error(self, load, raw, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        for source in (str(path), io.BytesIO(raw)):
            with pytest.raises(CsvFormatError, match="not valid UTF-8"):
                load(source)


def test_load_wide_matches_long():
    wide = load_wide_csv(_csv("time,a,b\n0.25,1.0,4.0\n0.75,2.0,5.0\n"))
    long = load_long_csv(
        _csv("id,time,value\na,0.25,1.0\na,0.75,2.0\nb,0.25,4.0\nb,0.75,5.0\n")
    )
    assert wide.ids == long.ids
    assert np.array_equal(wide.value_matrix(), long.value_matrix())


class TestGridValidation:
    def test_simulation_style_grid_accepted(self):
        # {j/m : j=0..m} includes t=0; passes via the permissive gap rule
        m = 31
        grid = np.arange(m + 1) / m
        FunctionalSample.from_matrix(grid, np.ones((1, m + 2 - 1)))

    def test_sparse_grid_rejected(self):
        with pytest.raises(DomainError, match="dense-regular"):
            FunctionalSample(["a"], [np.array([0.1, 0.2, 0.9])], [np.zeros(3)])

    def test_unsorted_rejected(self):
        with pytest.raises(DataError):
            FunctionalSample(["a"], [np.array([0.5, 0.1, 0.9])], [np.zeros(3)])

    def test_nan_time_rejected_naming_the_subject(self):
        # NaN fails every comparison, so "t < 0 or t > 1" would let it through
        t = np.array([0.0, 0.25, np.nan, 0.75, 1.0])
        with pytest.raises(DomainError, match="subject 'a' has observation times outside"):
            FunctionalSample(["a", "b", "c"], [t, t.copy(), t.copy()], [np.zeros(5)] * 3)

    def test_nonfinite_value_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            FunctionalSample(["a"], [np.array([0.25, 0.75])], [np.array([1.0, np.inf])])

    def test_first_bad_subject_is_named(self):
        fine, sparse = np.linspace(0, 1, 11), np.array([0.1, 0.2, 0.9])
        ids = ["a", "b", "c", "d"]
        values = [np.zeros(11), np.zeros(3), np.zeros(11), np.full(11, np.nan)]
        # b's grid fails before d's values
        with pytest.raises(DomainError, match="'b'"):
            FunctionalSample(ids, [fine, sparse, fine, fine], values)
        # c's values fail before e's grid, which is checked once, for its first subject
        values = [np.zeros(11), np.zeros(11), np.full(11, np.nan), np.zeros(3), np.zeros(3)]
        with pytest.raises(DataError, match="'c' has non-finite"):
            FunctionalSample(ids + ["e"], [fine, fine, fine, sparse, sparse], values)
        # a subject's values are checked before its grid
        with pytest.raises(DataError, match="'a' has non-finite"):
            FunctionalSample(["a"], [sparse], [np.full(3, np.inf)])

    def test_shared_grid_detection(self):
        g = np.linspace(0, 1, 11)
        s = FunctionalSample(["a", "b"], [g, g.copy()], [np.zeros(11), np.ones(11)])
        assert s.shared_grid is not None
        s2 = FunctionalSample(
            ["a", "b"],
            [np.linspace(0, 1, 11), np.linspace(0, 1, 13)],
            [np.zeros(11), np.ones(13)],
        )
        assert s2.shared_grid is None


class TestPresmooth:
    def test_constant_curve(self):
        g = np.linspace(0, 1, 21)
        s = FunctionalSample.from_matrix(g, np.full((1, 21), 5.0))
        sm = presmooth(s, h_d=0.2, eval_grid_size=41)
        assert np.max(np.abs(sm.values - 5.0)) < 1e-10
        assert np.max(np.abs(sm.derivatives)) < 1e-10

    def test_linear_curve(self):
        g = np.linspace(0, 1, 41)
        s = FunctionalSample.from_matrix(g, (2.0 * g)[None, :])
        sm = presmooth(s, h_d=0.15)
        assert np.max(np.abs(sm.derivatives - 2.0)) < 1e-8
        assert np.max(np.abs(sm.values - 2.0 * sm.eval_grid)) < 1e-8

    def test_polynomial_reproduction(self):
        g = np.linspace(0, 1, 51)
        y = 1.0 - 0.5 * g + 3.0 * g**2
        s = FunctionalSample.from_matrix(g, y[None, :])
        sm = presmooth(s, h_d=0.15)
        assert np.max(np.abs(sm.values - (1.0 - 0.5 * sm.eval_grid + 3.0 * sm.eval_grid**2))) < 1e-8
        assert np.max(np.abs(sm.derivatives - (-0.5 + 6.0 * sm.eval_grid))) < 1e-8

    def test_sine_derivative_accuracy(self):
        # local-quadratic slope bias at h=0.15 is h^2 f'''(t) nu4/(6 nu2) ~ 0.40
        # at t=0.5 for sin(2 pi t); the bound freezes that oracle run with margin
        g = np.linspace(0, 1, 51)
        s = FunctionalSample.from_matrix(g, np.sin(2 * np.pi * g)[None, :])
        sm = presmooth(s, h_d=0.15)
        at_half = np.argmin(np.abs(sm.eval_grid - 0.5))
        assert abs(sm.derivatives[0, at_half] - (-2 * np.pi)) < 0.45

    def test_sine_derivative_bias_shrinks_with_bandwidth(self):
        g = np.linspace(0, 1, 51)
        s = FunctionalSample.from_matrix(g, np.sin(2 * np.pi * g)[None, :])
        errs = []
        for h_d in (0.15, 0.10):
            sm = presmooth(s, h_d=h_d)
            at_half = np.argmin(np.abs(sm.eval_grid - 0.5))
            errs.append(abs(sm.derivatives[0, at_half] - (-2 * np.pi)))
        # quadratic bias scaling: shrinking h by 2/3 cuts the error by ~(2/3)^2
        assert errs[1] < 0.55 * errs[0]

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        g = np.linspace(0, 1, 31)
        y = rng.normal(size=(2, 31))
        base = presmooth(FunctionalSample.from_matrix(g, y), h_d=0.2)
        shifted = presmooth(FunctionalSample.from_matrix(g, y + 7.5), h_d=0.2)
        assert np.max(np.abs(shifted.values - base.values - 7.5)) < 1e-12 * 10
        assert np.max(np.abs(shifted.derivatives - base.derivatives)) < 1e-11

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        g = np.linspace(0, 1, 31)
        y = rng.normal(size=(2, 31))
        base = presmooth(FunctionalSample.from_matrix(g, y), h_d=0.2)
        scaled = presmooth(FunctionalSample.from_matrix(g, 3.0 * y), h_d=0.2)
        assert np.max(np.abs(scaled.values - 3.0 * base.values)) < 1e-10
        assert np.max(np.abs(scaled.derivatives - 3.0 * base.derivatives)) < 1e-10

    def test_too_few_points_in_window(self):
        g = np.array([0.2, 0.5, 0.8])
        s = FunctionalSample(["solo"], [g], [np.zeros(3)])
        with pytest.raises(InsufficientDataError, match="solo"):
            presmooth(s, h_d=0.15)

    def test_first_subject_on_a_failing_grid_is_named(self):
        # "first" and "second" share a too-sparse grid; "third" has one of its own
        fine, sparse = np.linspace(0, 1, 41), np.array([0.2, 0.5, 0.8])
        s = FunctionalSample(
            ["ok", "first", "ok2", "second", "third"],
            [fine, sparse, fine, sparse, np.array([0.25, 0.5, 0.75])],
            [np.zeros(41), np.zeros(3), np.ones(41), np.ones(3), np.ones(3)],
        )
        with pytest.raises(InsufficientDataError, match="subject 'first'"):
            presmooth(s, h_d=0.15)

    def test_parameter_validation(self):
        g = np.linspace(0, 1, 11)
        s = FunctionalSample.from_matrix(g, np.zeros((1, 11)))
        with pytest.raises(DomainError):
            presmooth(s, h_d=-0.1)
        with pytest.raises(DomainError):
            presmooth(s, h_d=0.3, eval_grid_size=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h_d", [float("nan"), float("inf")])
    def test_non_finite_bandwidth_is_named(self, h_d):
        g = np.linspace(0, 1, 11)
        s = FunctionalSample.from_matrix(g, np.zeros((1, 11)))
        with pytest.raises(DomainError) as info:
            presmooth(s, h_d=h_d)
        assert str(info.value) == f"presmoothing bandwidth h_d must be positive and finite, got {h_d!r}"

    def test_default_bandwidth_rule(self):
        g = np.linspace(0, 1, 11)
        s = FunctionalSample.from_matrix(g, np.zeros((1, 11)))
        assert default_presmooth_bandwidth(s) == pytest.approx(max(0.15, 3 / 11))


def _assert_matches_naive(sample, h_d, eval_grid_size=41):
    sm = presmooth(sample, h_d=h_d, eval_grid_size=eval_grid_size)
    for i, (t, y) in enumerate(zip(sample.times, sample.values)):
        values, slopes = naive_presmooth(t.tolist(), y.tolist(), h_d, sm.eval_grid.tolist())
        assert np.max(np.abs(sm.values[i] - values)) <= 1e-12
        assert np.max(np.abs(sm.derivatives[i] - slopes)) <= 1e-10


def _ragged_grid(rng, m):
    return np.sort((np.arange(m) + rng.uniform(0.05, 0.95, m)) / m)


class TestPresmoothMatchesNaive:
    def test_shared_grid(self):
        rng = np.random.default_rng(11)
        g = np.linspace(0, 1, 31)
        y = rng.normal(size=(6, 1)) + np.sin(2 * np.pi * g) + 0.2 * rng.normal(size=(6, 31))
        _assert_matches_naive(FunctionalSample.from_matrix(g, y), h_d=0.15)

    def test_ragged_sample(self):
        rng = np.random.default_rng(12)
        times = [_ragged_grid(rng, m) for m in (25, 31, 40, 28)]
        values = [np.cos(3 * t) + 0.2 * rng.normal(size=t.size) for t in times]
        _assert_matches_naive(FunctionalSample(list("abcd"), times, values), h_d=0.15)

    def test_mixed_sample(self):
        # subjects 1, 3 and 4 share one grid among subjects on grids of their own
        rng = np.random.default_rng(13)
        shared = _ragged_grid(rng, 30)
        times = [_ragged_grid(rng, 27), shared, _ragged_grid(rng, 35), shared.copy(), shared.copy()]
        values = [rng.normal(size=t.size) for t in times]
        _assert_matches_naive(FunctionalSample(list("abcde"), times, values), h_d=0.15)


class TestPresmoothBatches:
    """One grid shared by more subjects than a batch of output values holds."""

    def test_batches_match_one_unbatched_fit(self):
        rng = np.random.default_rng(14)
        g = np.linspace(0, 1, 31)
        per_batch = _BATCH_ROWS // 41
        n = 2 * per_batch + 17
        y = rng.normal(size=(n, 1)) + np.sin(2 * np.pi * g) + 0.2 * rng.normal(size=(n, 31))
        sm = presmooth(FunctionalSample.from_matrix(g, y), h_d=0.15, eval_grid_size=41)
        design, solve = _grid_smoother(g, sm.eval_grid, 0.15, EPANECHNIKOV, "s0001")
        values, derivatives = solve((design @ y.T).reshape(3, 41, n))
        # the batches share one matmul and solve elementwise, so nothing rounds differently
        np.testing.assert_array_equal(sm.values, values)
        np.testing.assert_array_equal(sm.derivatives, derivatives)
        # the subjects on both sides of each batch edge
        for i in (0, per_batch - 1, per_batch, 2 * per_batch - 1, 2 * per_batch, n - 1):
            v, d = naive_presmooth(g.tolist(), y[i].tolist(), 0.15, sm.eval_grid.tolist())
            assert np.max(np.abs(sm.values[i] - v)) <= 1e-12
            assert np.max(np.abs(sm.derivatives[i] - d)) <= 1e-10

    def test_first_subject_on_a_failing_grid_is_named(self):
        # the sparse grid's subjects fill more than one batch; "first" comes first
        fine, sparse = np.linspace(0, 1, 41), np.array([0.2, 0.5, 0.8])
        k = _BATCH_ROWS // 101 + 5
        ids = ["ok", "first", *[f"s{i}" for i in range(k)]]
        times = [fine, sparse, *[sparse] * k]
        s = FunctionalSample(ids, times, [np.ones(t.size) for t in times])
        with pytest.raises(InsufficientDataError, match=r"^subject 'first': only 0 observations "
                           r"in the smoothing window at t=0 \(need >= 3\); increase h_d$"):
            presmooth(s, h_d=0.15)


def test_pooled_std():
    g = np.linspace(0, 1, 5)
    s = FunctionalSample.from_matrix(g, np.vstack([np.zeros(5), np.ones(5)]))
    allv = np.concatenate([np.zeros(5), np.ones(5)])
    assert pooled_std(s) == pytest.approx(np.std(allv, ddof=1))
