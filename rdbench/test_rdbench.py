"""Smoke tests of the benchmark itself: schema, metric names, output checks.

Run from the repository root with ``python3 -m pytest rdbench -q``.  They
use the ``--smoke`` sizes and check no timing.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "rdbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["rdbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_result_line(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "rdbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli_shared", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def shared_outputs(tmp_path_factory):
    """One checked pass of the smoke-size cli_shared workload; its output directory."""
    import importlib

    rd = {m: importlib.import_module(f"rankdyn.{m}") for m in ("cli", "simulation", "bandwidth")}
    wl = workloads.CliShared(tmp_path_factory.mktemp("shared"), 5, True, rd)
    seq = workloads.Sequence()
    wl.run(seq, first=True)
    assert seq.failed == 0, seq.problems
    return wl


def _copy(wl, tmp_path, label):
    return Path(shutil.copytree(wl.workdir / label, tmp_path / label))


def test_checks_pass_on_the_real_outputs(shared_outputs):
    wl = shared_outputs
    tgrid = checks.trimmed(checks.eval_grid(), wl.bw[1])
    assert checks.check_decomposition(wl.workdir / "decompose", wl.ids, tgrid)[0] == []
    assert checks.check_summaries(wl.workdir / "summaries", wl.ids, tgrid) == []
    methods = {"empirical": checks.eval_grid(), "smooth": tgrid}
    assert checks.check_ranks(wl.workdir / "ranks", wl.ids, methods)[0] == []


def test_rank_outside_unit_interval_fails(shared_outputs, tmp_path):
    out = _copy(shared_outputs, tmp_path, "ranks")
    lines = (out / "ranks.csv").read_text().splitlines()
    sid, t, _, method = lines[-1].split(",")
    lines[-1] = f"{sid},{t},1.5,{method}"
    (out / "ranks.csv").write_text("\n".join(lines) + "\n")
    methods = {"empirical": checks.eval_grid(), "smooth": checks.trimmed(checks.eval_grid(), shared_outputs.bw[1])}
    assert checks.check_ranks(out, shared_outputs.ids, methods)[0]


def test_broken_lattice_and_row_count_fail(shared_outputs, tmp_path):
    out = _copy(shared_outputs, tmp_path, "ranks")
    lines = (out / "ranks.csv").read_text().splitlines()
    methods = {"empirical": checks.eval_grid()}
    n_emp = len(shared_outputs.ids) * checks.EVAL_POINTS
    first = lines[1].split(",")
    other = lines[1 + checks.EVAL_POINTS].split(",")  # the next subject at the same t
    lines[1] = ",".join(first[:2] + [other[2], first[3]])
    (out / "ranks.csv").write_text("\n".join(lines[: n_emp + 1]) + "\n")
    assert checks.check_ranks(out, shared_outputs.ids, methods)[0]
    (out / "ranks.csv").write_text("\n".join([lines[0]] + lines[2: n_emp + 1]) + "\n")
    assert checks.check_ranks(out, shared_outputs.ids, methods)[0]


def test_broken_identities_fail(shared_outputs, tmp_path):
    wl = shared_outputs
    tgrid = checks.trimmed(checks.eval_grid(), wl.bw[1])
    dec = _copy(wl, tmp_path, "decompose")
    lam = json.loads((dec / "contributions.json").read_text())
    (dec / "contributions.json").write_text(json.dumps({**lam, "lambda2": lam["lambda2"] + 1e-6}))
    assert checks.check_decomposition(dec, wl.ids, tgrid)[0]

    dec2 = _copy(wl, tmp_path / "x", "decompose")
    lines = (dec2 / "decomposition.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)
    lines[1] = ",".join(cells)
    (dec2 / "decomposition.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_decomposition(dec2, wl.ids, tgrid)[0]

    summ = _copy(wl, tmp_path, "summaries")
    pop = json.loads((summ / "population.json").read_text())
    (summ / "population.json").write_text(json.dumps({**pop, "G": pop["G"] * (1 + 1e-9)}))
    assert checks.check_summaries(summ, wl.ids, tgrid)


def test_oracle_catches_wrong_components(shared_outputs):
    wl = shared_outputs
    tgrid = checks.trimmed(checks.eval_grid(), wl.bw[1])
    h_d = wl.manifest_h_d(wl.workdir / "decompose")
    _, (c1, c2) = checks.check_decomposition(wl.workdir / "decompose", wl.ids, tgrid)
    _, smooth = checks.check_ranks(wl.workdir / "ranks", wl.ids, {"empirical": checks.eval_grid(), "smooth": tgrid})
    args = (workloads.SHARED_GRID, wl.values, h_d, wl.bw, tgrid)
    assert checks.check_oracle_shared(*args, smooth, c1, c2) == []
    assert checks.check_oracle_shared(*args, smooth, c1 * (1 + 1e-5), c2)
    assert checks.check_oracle_shared(*args, smooth * 0.999, c1, c2)
