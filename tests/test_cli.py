import csv
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import rankdyn
from rankdyn import cli
from rankdyn.cli import main
from rankdyn.dynamics import DecompositionResult, decompose
from rankdyn.ranks import Bandwidths, RankTrajectories, empirical_ranks, smooth_ranks
from rankdyn.sample import default_presmooth_bandwidth, load_long_csv, presmooth
from rankdyn.summaries import SubjectSummary, subject_summaries
from reference import naive_decomposition_csv, naive_ranks_csv, naive_subject_summaries_csv


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(5)
    grid = np.linspace(0, 1, 41)
    lines = ["id,time,value"]
    for i in range(12):
        c = rng.normal()
        for t in grid:
            v = c + np.sin(2 * np.pi * t) * rng.normal(1.0, 0.1)
            lines.append(f"subj{i},{float(t)!r},{float(v)!r}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestRanksCommand:
    def test_outputs(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["ranks", "--input", str(data_csv), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "ranks.csv")
        assert header == ["id", "t", "rank", "method"]
        methods = {r[3] for r in rows}
        assert methods == {"empirical", "smooth"}
        ranks = np.array([float(r[2]) for r in rows])
        assert ranks.min() >= 0.0 and ranks.max() <= 1.0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "ranks"
        assert manifest["h_y"] > 0 and manifest["h_t"] > 0

    def test_svg(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["ranks", "--input", str(data_csv), "--out", str(out), "--svg"]) == 0
        tree = ET.parse(out / "rank_trajectories.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_input_not_mutated(self, data_csv, tmp_path):
        before = data_csv.read_bytes()
        main(["ranks", "--input", str(data_csv), "--out", str(tmp_path / "o")])
        assert data_csv.read_bytes() == before

    def test_wide_format(self, tmp_path):
        wide = tmp_path / "w.csv"
        grid = np.linspace(0, 1, 21)
        header = "time,a,b,c"
        rows = [
            f"{float(t)!r},{float(np.sin(2 * np.pi * t))!r},{float(t)!r},{float(1 - t)!r}"
            for t in grid
        ]
        wide.write_text(header + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["ranks", "--input", str(wide), "--wide", "--out", str(out)]) == 0


class TestDecomposeCommand:
    def test_outputs_and_determinism(self, data_csv, tmp_path):
        args = ["decompose", "--input", str(data_csv), "--h-y", "0.8", "--h-t", "0.2"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "decomposition.csv").read_bytes()
        b = (tmp_path / "b" / "decomposition.csv").read_bytes()
        assert a == b
        header, rows = _read_csv(tmp_path / "a" / "decomposition.csv")
        assert header == ["id", "t", "c1", "c2", "rprime"]
        lam = json.loads((tmp_path / "a" / "contributions.json").read_text())
        assert lam["lambda1"] + lam["lambda2"] == 1.0

    def test_manifest_replay(self, data_csv, tmp_path):
        out1 = tmp_path / "a"
        main(["decompose", "--input", str(data_csv), "--h-y", "0.8", "--h-t", "0.2",
              "--out", str(out1)])
        out2 = tmp_path / "b"
        rc = main(["decompose", "--config", str(out1 / "run_manifest.json"),
                   "--out", str(out2)])
        assert rc == 0
        assert (out1 / "decomposition.csv").read_bytes() == (out2 / "decomposition.csv").read_bytes()

    def test_trim_flag(self, data_csv, tmp_path):
        out = tmp_path / "o"
        assert main(["decompose", "--input", str(data_csv), "--h-y", "0.8",
                     "--h-t", "0.2", "--trim", "0.3", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "decomposition.csv")
        ts = np.array([float(r[1]) for r in rows])
        assert ts.min() >= 0.3 - 1e-12 and ts.max() <= 0.7 + 1e-12


@pytest.mark.parametrize("command, files", [
    ("decompose", ["decomposition.csv", "contributions.json", "components.svg"]),
    ("summaries", ["subject_summaries.csv", "population.json", "gamma.svg"]),
])
def test_one_trimmed_point_exits_1_and_writes_nothing(command, files, data_csv, tmp_path, capsys):
    # the evaluation grid {0, 0.5, 1} keeps only 0.5 inside [0.2, 0.8]
    out = tmp_path / "o"
    assert main([command, "--input", str(data_csv), "--h-y", "0.8", "--h-t", "0.2",
                 "--eval-points", "3", "--svg", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fewer than two evaluation points remain inside [trim, 1 - trim]")
    assert "Traceback" not in err
    assert not any((out / name).exists() for name in files)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flags, message", [
    ("decompose", ["--h-y", "inf", "--h-t", "0.2"], "h_y must be positive and finite, got inf"),
    ("summaries", ["--h-y", "inf", "--h-t", "0.2"], "h_y must be positive and finite, got inf"),
    ("ranks", ["--h-y", "inf", "--h-t", "0.2"], "h_y must be positive and finite, got inf"),
    ("ranks", ["--h-d", "nan"], "presmoothing bandwidth h_d must be positive and finite, got nan"),
    ("ranks", ["--h-d", "inf"], "presmoothing bandwidth h_d must be positive and finite, got inf"),
])
def test_non_finite_bandwidth_exits_1_and_writes_nothing(command, flags, message, data_csv,
                                                         tmp_path, capsys):
    out = tmp_path / "o"
    assert main([command, "--input", str(data_csv), "--svg", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, figure", [("decompose", "components.svg"), ("summaries", "gamma.svg")])
def test_figures_parse_and_leave_no_temp_file(command, figure, data_csv, tmp_path):
    out = tmp_path / "o"
    assert main([command, "--input", str(data_csv), "--h-y", "0.8", "--h-t", "0.2", "--svg",
                 "--out", str(out)]) == 0
    assert ET.parse(out / figure).getroot().tag.endswith("svg")
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("command, figures, extra", [
    ("decompose", ["components.svg"], ["--h-y", "0.8", "--h-t", "0.2"]),
    ("summaries", ["gamma.svg"], ["--h-y", "0.8", "--h-t", "0.2"]),
    ("ranks", ["rank_trajectories.svg"], ["--method", "empirical"]),
    ("simulate", ["mise_cv.svg", "mise_opt.svg"], ["--n", "8", "--runs", "1", "--cv-grid", "2x2"]),
])
def test_a_run_without_svg_removes_its_own_stale_figures(command, figures, extra, data_csv,
                                                         tmp_path):
    out = tmp_path / "o"
    args = [command, "--out", str(out), *extra]
    if command != "simulate":
        args += ["--input", str(data_csv)]
    assert main(args + ["--svg"]) == 0
    assert all((out / name).exists() for name in figures)
    # another command's figure and a file of the user's are left alone
    others = {"gamma.svg" if command != "summaries" else "components.svg": "<svg/>",
              "notes.txt": "keep"}
    for name, text in others.items():
        (out / name).write_text(text)
    assert main(args) == 0
    assert not any((out / name).exists() for name in figures)
    assert json.loads((out / "run_manifest.json").read_text())["svg"] is False
    assert {name: (out / name).read_text() for name in others} == others


def test_trim_from_config_number_matches_flag(data_csv, tmp_path):
    out = tmp_path / "o"
    args = ["summaries", "--input", str(data_csv), "--h-y", "0.8", "--h-t", "0.2", "--out", str(out)]
    written = []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trim": 0.3}))
    for extra in (["--trim", "0.3"], ["--config", str(cfg)]):
        assert main(args + extra) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[0] == written[1]
    assert json.loads(written[0]["run_manifest.json"])["trim"] == "0.3"


def test_malformed_trim_fails_before_cv(data_csv, tmp_path, monkeypatch, capsys):
    def no_cv(*args, **kwargs):
        raise AssertionError("select_bandwidths ran before --trim was checked")

    monkeypatch.setattr(cli, "select_bandwidths", no_cv)
    assert main(["decompose", "--input", str(data_csv), "--cv-grid", "default",
                 "--trim", "abc", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("usage error: --trim")


class TestSummariesCommand:
    def test_outputs(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["summaries", "--input", str(data_csv), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "subject_summaries.csv")
        assert header == ["id", "rho", "nu", "zeta", "eta"]
        assert len(rows) == 12
        pop = json.loads((out / "population.json").read_text())
        assert set(pop) == {"M", "G", "gamma"}
        assert pop["G"] == pytest.approx(np.exp(-pop["M"]))


class TestCvCommand:
    def test_outputs(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["cv", "--input", str(data_csv), "--out", str(out),
                     "--cv-grid", "2x2"]) == 0
        header, rows = _read_csv(out / "cv_report.csv")
        assert header == ["h_y", "h_t", "cv_value"]
        assert len(rows) == 4
        chosen = json.loads((out / "chosen.json").read_text())
        values = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert values[(chosen["h_y"], chosen["h_t"])] == min(values.values())

    def test_explicit_pairs(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["cv", "--input", str(data_csv), "--out", str(out),
                     "--cv-grid", "0.9:0.2,0.5:0.15"]) == 0
        _, rows = _read_csv(out / "cv_report.csv")
        assert len(rows) == 2


def test_ranks_single_method(data_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["ranks", "--input", str(data_csv), "--out", str(out),
                 "--method", "smooth"]) == 0
    _, rows = _read_csv(out / "ranks.csv")
    assert {r[3] for r in rows} == {"smooth"}


def test_empirical_ranks_work_without_value_spread(tmp_path):
    # two flat identical curves: no pooled sd, but empirical ranks are defined
    flat = tmp_path / "flat.csv"
    lines = ["id,time,value"]
    for sid in ("a", "b"):
        for t in np.linspace(0, 1, 11):
            lines.append(f"{sid},{float(t)!r},2.0")
    flat.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["ranks", "--input", str(flat), "--out", str(out),
                 "--method", "empirical"]) == 0
    _, rows = _read_csv(out / "ranks.csv")
    assert {float(r[2]) for r in rows} == {0.5}


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        args = ["simulate", "--n", "8", "--runs", "2", "--seed", "1",
                "--cv-grid", "1.2:0.25,0.8:0.25"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "report.csv").read_bytes()
        assert a == (tmp_path / "b" / "report.csv").read_bytes()
        header, rows = _read_csv(tmp_path / "a" / "report.csv")
        assert header == ["run", "n", "h_y_cv", "h_t_cv", "h_y_opt", "h_t_opt",
                          "mise_c1_cv", "mise_c2_cv", "mise_c1_opt", "mise_c2_opt"]
        assert len(rows) == 2
        eheader, erows = _read_csv(tmp_path / "a" / "summary_errors.csv")
        assert eheader == ["run", "n", "err_rho", "err_nu", "err_zeta"]
        assert len(erows) == 2

    def test_square_grid_and_svg(self, tmp_path):
        out = tmp_path / "g"
        assert main(["simulate", "--n", "8", "--runs", "1", "--seed", "2",
                     "--cv-grid", "2x2", "--svg", "--out", str(out)]) == 0
        assert (out / "mise_cv.svg").exists() and (out / "mise_opt.svg").exists()
        _, rows = _read_csv(out / "report.csv")
        assert len(rows) == 1


ODD_IDS = ["a,b", 'q"x', "plain", "p2", "p3", "p4"]


@pytest.fixture()
def odd_ids_csv(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "odd_ids.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "value"])
        for sid in ODD_IDS:
            c = rng.normal()
            for t in np.linspace(0, 1, 41):
                writer.writerow([sid, repr(float(t)), repr(float(c + np.sin(2 * np.pi * t)))])
    return path


def test_ids_with_comma_and_quote_round_trip(odd_ids_csv, tmp_path):
    path, ids = odd_ids_csv, ODD_IDS
    bw = ["--h-y", "0.8", "--h-t", "0.2"]
    for command, name in [("ranks", "ranks.csv"), ("decompose", "decomposition.csv"),
                          ("summaries", "subject_summaries.csv")]:
        out = tmp_path / command
        assert main([command, "--input", str(path), "--out", str(out)] + bw) == 0
        with open(out / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert all(len(r) == len(header) for r in rows)
        assert {r[0] for r in rows} == set(ids)


class TestWriterMatchesRowByRowOracle:
    """The column-wise CSV writer against the row-at-a-time formatting in reference.py."""

    IDS = ["a,b", 'q"x', "plain"]
    THIRD = 1.0 / 3.0  # needs 17 significant digits

    def _check(self, path, expected):
        assert path.read_bytes() == expected.encode("utf-8")

    def test_ranks_both_methods(self, tmp_path):
        third = self.THIRD
        empirical = RankTrajectories(
            self.IDS, [0.0, 0.1 + 0.2, 1.0],
            [[-0.0, third, 2 * third], [0.0, 2 * third, third], [third, 0.0, 1.0]],
            "empirical",
        )
        smooth = RankTrajectories(
            self.IDS, [0.30000000000000004, 0.7],
            [[0.12345678901234568, -1e-12], [1 + 1e-12, 0.5], [-0.0, 0.9999999999999999]],
            "smooth",
        )
        cli._write_atomic(tmp_path / "ranks.csv", cli._ranks_csv([empirical, smooth]))
        self._check(tmp_path / "ranks.csv", naive_ranks_csv([empirical, smooth]))
        text = (tmp_path / "ranks.csv").read_text()
        assert "-0.0" not in text and "1.000000000001" not in text
        assert '"a,b",0.30000000000000004,0.3333333333333333,empirical' in text

    def test_decomposition(self, tmp_path):
        c1 = np.array([[self.THIRD, -0.0, 1e-300], [1.2345678901234567e20, -2.5, 0.1 + 0.2],
                       [0.0, 7.0, -self.THIRD]])
        c2 = np.array([[-self.THIRD, 0.0, 5e-324], [1.0, 2.0 / 3.0, -0.1], [1e-17, -7.0, 0.5]])
        dec = DecompositionResult(self.IDS, [0.2, 0.5, 0.8], c1, c2, c1 + c2)
        cli._write_atomic(tmp_path / "decomposition.csv", cli._decomposition_csv(dec))
        self._check(tmp_path / "decomposition.csv", naive_decomposition_csv(dec))

    def test_subject_summaries(self, tmp_path):
        subs = [SubjectSummary(sid, self.THIRD * k, 0.1 + 0.2, -0.0, 1e-17 * k)
                for k, sid in enumerate(self.IDS)]
        cli._write_atomic(tmp_path / "subject_summaries.csv", cli._subject_summaries_csv(subs))
        self._check(tmp_path / "subject_summaries.csv", naive_subject_summaries_csv(subs))

    def test_signed_zeros_repeats_and_subnormals(self, tmp_path):
        # each column mixes 0.0 and -0.0 with repeated values and subnormals
        c1 = np.array([[0.0, -0.0, 5e-324], [-0.0, self.THIRD, 0.0], [5e-324, -5e-324, self.THIRD]])
        dec = DecompositionResult(self.IDS, [0.2, 0.5, 0.8], c1, -c1, c1 * 0.0)
        cli._write_atomic(tmp_path / "decomposition.csv", cli._decomposition_csv(dec))
        self._check(tmp_path / "decomposition.csv", naive_decomposition_csv(dec))
        c1_fields = [row[2] for row in _read_csv(tmp_path / "decomposition.csv")[1][3:6]]
        assert c1_fields == ["-0.0", "0.3333333333333333", "0.0"]

    def test_tables_longer_than_one_write(self, tmp_path):
        rng = np.random.default_rng(4)
        n, g = 90, 101
        assert n * g > cli._ROWS_PER_WRITE
        sets = [RankTrajectories([f"s{i}" for i in range(n)], np.linspace(0.0, 1.0, g),
                                 np.round(rng.uniform(size=(n, g)), 3), method)
                for method in ("empirical", "smooth")]
        cli._write_atomic(tmp_path / "ranks.csv", cli._ranks_csv(sets))
        self._check(tmp_path / "ranks.csv", naive_ranks_csv(sets))

    def test_commands_write_what_the_oracle_formats(self, odd_ids_csv, tmp_path):
        bw = Bandwidths(0.8, 0.2)
        sample = load_long_csv(odd_ids_csv)
        smoothed = presmooth(sample, h_d=default_presmooth_bandwidth(sample))
        dec = decompose(sample, smoothed, bw, trim=bw.h_t)
        sets = [empirical_ranks(smoothed), smooth_ranks(smoothed, bw)]
        expected = {
            "ranks": ("ranks.csv", naive_ranks_csv(sets)),
            "decompose": ("decomposition.csv", naive_decomposition_csv(dec)),
            "summaries": ("subject_summaries.csv",
                          naive_subject_summaries_csv(subject_summaries(sets[1], dec))),
        }
        for command, (name, text) in expected.items():
            out = tmp_path / command
            args = [command, "--input", str(odd_ids_csv), "--out", str(out), "--h-y", "0.8", "--h-t", "0.2"]
            assert main(args) == 0
            self._check(out / name, text)


def test_ingest_memory_is_bounded_by_the_batch(tmp_path, monkeypatch):
    # CSV in, ranks.csv out on 5000 curves of 32 points: each stage holds
    # arrays and one batch of strings, never a Python string per field or per
    # output row, which would take 37-54 MB a stage on this input
    n, m = 5000, 32
    grid = np.arange(m) / (m - 1)
    rng = np.random.default_rng(21)
    values = rng.normal(size=(n, 1)) + np.sin(2 * np.pi * grid) * rng.normal(1.0, 0.2, size=(n, 1))
    path = tmp_path / "in.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,time,value\n")
        for i, row in enumerate(values.tolist()):
            fh.writelines(f"s{i:05d},{t!r},{v!r}\n" for t, v in zip(grid.tolist(), row))

    # one traced run of the command; each stage's peak is counted above what
    # the stages before it left allocated, and the writer's is the largest
    # over the files it writes
    peaks = {"op": 0}

    def traced(name, fn):
        def call(*args, **kwargs):
            held, before = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            after = tracemalloc.get_traced_memory()[1]
            peaks[name] = max(peaks.get(name, 0), after - held)
            peaks["op"] = max(peaks["op"], before, after)
            return result
        return call

    for name in ("load_long_csv", "presmooth", "_write_atomic"):
        monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
    args = ["ranks", "--input", str(path), "--out", str(tmp_path / "out"), "--method", "empirical"]
    tracemalloc.start()
    try:
        assert main(args) == 0
        peaks["op"] = max(peaks["op"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    parsed = 3 * n * m * 8   # subject codes, times and values
    one = n * 101 * 8        # one (n, G) array on the default evaluation grid
    assert peaks["load_long_csv"] <= 5 * parsed
    assert peaks["presmooth"] <= 6 * one   # values, derivatives and the 3 weighted responses
    assert peaks["_write_atomic"] <= 5 * one
    assert peaks["op"] <= 10 * one


@pytest.mark.parametrize(
    "case",
    ["ranks", "summaries", "cv", "simulate", "ranks+cv", "decompose+cv", "summaries+cv"],
)
def test_every_manifest_replays(case, data_csv, tmp_path):
    command, _, picked = case.partition("+")
    if command == "simulate":
        args = ["simulate", "--n", "8", "--runs", "1", "--cv-grid", "1.2:0.25"]
    elif command == "cv":
        args = ["cv", "--input", str(data_csv), "--cv-grid", "0.9:0.2,0.5:0.15"]
    elif picked:
        args = [command, "--input", str(data_csv), "--cv-grid", "2x2"]
    else:
        args = [command, "--input", str(data_csv), "--h-y", "0.8", "--h-t", "0.2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    rc = main([command, "--config", str(tmp_path / "a" / "run_manifest.json"),
               "--out", str(tmp_path / "b")])
    assert rc == 0
    outputs = [f for f in (tmp_path / "a").iterdir() if f.name != "run_manifest.json"]
    assert outputs
    for f in outputs:
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["ranks", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 1

    def test_bad_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,value\na,2.5,1.0\n")
        assert main(["ranks", "--input", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("wide, text", [
        (False, b"id,time,value\ncaf\xe9,0.5,1.0\n"),
        (True, b"time,caf\xe9,b\n0.5,1.0,2.0\n"),
    ])
    def test_non_utf8_input_is_data_error(self, wide, text, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(text)
        args = ["ranks", "--input", str(bad), "--out", str(tmp_path / "o")] + ["--wide"] * wide
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and "Traceback" not in err

    def test_unknown_flag_is_usage_error(self):
        assert main(["ranks", "--nonsense"]) == 2

    def test_missing_command_is_usage_error(self):
        assert main([]) == 2

    def test_mutually_exclusive_flags(self, data_csv, tmp_path):
        assert main(["decompose", "--input", str(data_csv), "--h-y", "1.0",
                     "--h-t", "0.2", "--cv-grid", "default",
                     "--out", str(tmp_path)]) == 2

    def test_non_numeric_cv_grid_pair_is_usage_error(self, data_csv, tmp_path, capsys):
        assert main(["cv", "--input", str(data_csv), "--cv-grid", "abc:0.1",
                     "--out", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, spec", [
        ("cv", "0x0"), ("cv", "00x00"), ("simulate", "0x0"), ("simulate", "\u00b2x\u00b2"),
    ])
    def test_malformed_square_cv_grid_is_usage_error(self, command, spec, data_csv, tmp_path, capsys):
        args = [command, "--cv-grid", spec, "--out", str(tmp_path / "o")]
        args += ["--input", str(data_csv)] if command == "cv" else ["--n", "8", "--runs", "1"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"usage error: --cv-grid {spec!r}")

    def test_half_pair_is_usage_error(self, data_csv, tmp_path):
        assert main(["decompose", "--input", str(data_csv), "--h-y", "1.0",
                     "--out", str(tmp_path)]) == 2

    def test_config_with_mistyped_value_is_usage_error(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h_y": "abc", "h_t": 0.2}))
        assert main(["decompose", "--input", str(data_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_config_with_unknown_key_is_usage_error(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h_yy": 0.8}))
        assert main(["decompose", "--input", str(data_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("setting, code", [
        ("trim", 2),
        ("kernel", 2),
        ("config_dir", 1),
        ("input_dir", 1),
        ("out_file", 1),
    ])
    def test_bad_setting_exits_without_traceback(self, setting, code, data_csv, tmp_path, capsys):
        args = ["decompose", "--input", str(data_csv), "--h-y", "0.8", "--h-t", "0.2",
                "--out", str(tmp_path / "o")]
        if setting == "trim":
            args += ["--trim", "abc"]
        elif setting == "kernel":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"kernel": "gaussian"}))
            args += ["--config", str(cfg)]
        elif setting == "config_dir":
            args += ["--config", str(tmp_path)]
        elif setting == "input_dir":
            args[2] = str(tmp_path)
        else:
            (tmp_path / "taken").write_text("")
            args += ["--out", str(tmp_path / "taken")]
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 2 else "error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args, config", [
        (["ranks", "--input", "DATA", "--method", "rank"], None),
        (["simulate", "--n", "8,x", "--runs", "1"], None),
        (["simulate", "--n", "", "--runs", "1"], None),
        (["decompose", "--input", "DATA", "--config", "CFG"], "[0.8, 0.2]"),
        (["decompose", "--input", "DATA", "--config", "CFG"], '{"h_y": 0.8,'),
        (["summaries", "--h-y", "0.8", "--h-t", "0.2"], None),
    ], ids=["method", "n-malformed", "n-empty", "config-not-object", "config-not-json", "no-input"])
    def test_usage_error_writes_nothing(self, args, config, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config)
        args = [{"DATA": str(data_csv), "CFG": str(cfg)}.get(a, a) for a in args]
        out = tmp_path / "o"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_kernel_flag_and_config_key_share_one_check(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": "gaussian"}))
        messages = []
        for extra in (["--kernel", "gaussian"], ["--config", str(cfg)]):
            assert main(["cv", "--input", str(data_csv), "--out", str(tmp_path / "o"), *extra]) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert "epanechnikov" in messages[0]


def test_importing_the_cli_loads_no_scipy():
    # only the simulation's closed-form truths use scipy, and importing it
    # would double the start-up time of every command; multiprocessing is
    # only for the simulation's process pool
    src = str(Path(rankdyn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, rankdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_every_command_keeps_its_flags_and_help(monkeypatch, capsys):
    # cli_help.json holds each command's option strings and --help text at
    # 80 columns, recorded when every subparser declared its own flags; the
    # flags they share must parse and print exactly as before
    expected = json.loads(Path(__file__).with_name("cli_help.json").read_text(encoding="utf-8"))
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert list(commands) == [name for name in expected if name != "rankdyn"]
    for name, want in expected.items():
        p = parser if name == "rankdyn" else commands[name]
        assert [s for a in p._actions for s in a.option_strings] == want["options"]
        assert main(([] if name == "rankdyn" else [name]) + ["--help"]) == 0
        assert capsys.readouterr().out == want["help"]
