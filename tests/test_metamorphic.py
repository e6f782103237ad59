"""Time reversal, t -> 1 - t, run end to end through ``cli.main``.

Reversing time mirrors the cross-sectional cdf: F(y, t) becomes F(y, 1 - t).
So C1, C2 and R' negate and mirror, gamma mirrors, zeta negates, and the CV
values, lambda1, M, G, rho, nu and eta stay the same.  Each relation holds
to rounding only if every window rule (CV's scored times, the trimmed grid,
the time kernel's edges) treats t and 1 - t alike.
"""

import csv
import json

import numpy as np
import pytest

from rankdyn.cli import main
from rankdyn.simulation import SimModel, basis_matrix

TOL = 1e-12
N = 25
BANDWIDTHS = ["--h-y", "0.9", "--h-t", "0.2"]
GRIDS = {"j/31": np.arange(32) / 31, "linspace21": np.linspace(0.0, 1.0, 21)}
KERNELS = ["epanechnikov", "biweight"]
TRIMS = ["auto", "0.31"]


def _write(path, grid, values):
    lines = ["id,time,value"]
    for i, row in enumerate(values):
        lines += [f"s{i:02d},{t!r},{v!r}" for t, v in zip(grid.tolist(), row.tolist())]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(forward, reversed) CSVs of N verification-model curves on each grid."""
    root = tmp_path_factory.mktemp("reversal")
    model = SimModel()
    xi = np.random.default_rng(31).normal(model.means, model.sds, size=(N, 5))
    out = {}
    for name, grid in GRIDS.items():
        values = xi @ basis_matrix(grid)[0].T
        pair = root / f"{name.replace('/', '_')}.csv", root / f"{name.replace('/', '_')}_rev.csv"
        _write(pair[0], grid, values)
        _write(pair[1], 1.0 - grid, values)
        out[name] = pair
    return out


@pytest.fixture(scope="module")
def run(inputs, tmp_path_factory):
    """run(command, grid, *argv) -> (forward, reversed) output directories, each run once."""
    root = tmp_path_factory.mktemp("runs")
    done = {}

    def go(command, grid, *argv):
        key = (command, grid, *argv)
        if key not in done:
            dirs = []
            for side, csv_path in zip(("fwd", "rev"), inputs[grid]):
                out = root / f"{len(done)}_{side}"
                assert main([command, "--input", str(csv_path), "--out", str(out), *argv]) == 0
                dirs.append(out)
            done[key] = tuple(dirs)
        return done[key]

    return go


def _table(path, fields):
    """(ids, t, {field: (n, G)}) of a per-subject, per-time CSV."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    ids = sorted({r["id"] for r in rows})
    t = np.array(sorted({float(r["t"]) for r in rows}))
    cols = {k: np.zeros((len(ids), t.size)) for k in fields}
    at = {x: j for j, x in enumerate(t)}
    for r in rows:
        for k in fields:
            cols[k][ids.index(r["id"]), at[float(r["t"])]] = float(r[k])
    return ids, t, cols


def _by_id(path):
    with open(path, newline="") as f:
        return {r["id"]: {k: float(v) for k, v in r.items() if k != "id"} for r in csv.DictReader(f)}


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b))))


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_cv_values_and_pick_are_time_symmetric(run, grid, kernel):
    fwd, rev = run("cv", grid, "--kernel", kernel)
    with open(fwd / "cv_report.csv", newline="") as f, open(rev / "cv_report.csv", newline="") as g:
        a = np.array([[float(x) for x in r] for r in list(csv.reader(f))[1:]])
        b = np.array([[float(x) for x in r] for r in list(csv.reader(g))[1:]])
    assert a.shape == b.shape == (16, 3)
    assert np.all(np.abs(a - b) <= TOL * np.abs(a))  # h_y, h_t and every value
    assert np.argmin(a[:, 2]) == np.argmin(b[:, 2])
    chosen = [json.loads((d / "chosen.json").read_text()) for d in (fwd, rev)]
    assert chosen[0]["h_t"] == chosen[1]["h_t"]
    assert chosen[1]["h_y"] == pytest.approx(chosen[0]["h_y"], rel=TOL)


@pytest.mark.parametrize("trim", TRIMS)
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_components_negate_and_mirror(run, grid, kernel, trim):
    fwd, rev = run("decompose", grid, "--kernel", kernel, "--trim", trim, *BANDWIDTHS)
    ids, t, a = _table(fwd / "decomposition.csv", ["c1", "c2", "rprime"])
    ids_rev, t_rev, b = _table(rev / "decomposition.csv", ["c1", "c2", "rprime"])
    assert ids == ids_rev and t.size > 2
    np.testing.assert_allclose(1.0 - t_rev[::-1], t, rtol=0, atol=TOL)
    scale = np.max(np.abs(a["c1"]))
    for name in ("c1", "c2", "rprime"):
        gap = np.max(np.abs(a[name] + b[name][:, ::-1]))
        assert gap <= TOL * scale, (name, gap / scale)
    lam = [json.loads((d / "contributions.json").read_text())["lambda1"] for d in (fwd, rev)]
    assert lam[1] == pytest.approx(lam[0], rel=TOL)


@pytest.mark.parametrize("trim", TRIMS)
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_summaries_are_time_symmetric(run, grid, kernel, trim):
    fwd, rev = run("summaries", grid, "--kernel", kernel, "--trim", trim, *BANDWIDTHS)
    pop = [json.loads((d / "population.json").read_text()) for d in (fwd, rev)]
    assert pop[1]["M"] == pytest.approx(pop[0]["M"], rel=TOL)
    assert pop[1]["G"] == pytest.approx(pop[0]["G"], rel=TOL)
    assert _rel(pop[0]["gamma"], pop[1]["gamma"][::-1]) <= TOL
    a, b = _by_id(fwd / "subject_summaries.csv"), _by_id(rev / "subject_summaries.csv")
    assert a.keys() == b.keys()
    for name in ("rho", "nu", "eta"):
        assert _rel([s[name] for s in a.values()], [b[i][name] for i in a]) <= TOL, name
    zeta = np.array([s["zeta"] for s in a.values()])
    assert np.max(np.abs(zeta + [b[i]["zeta"] for i in a])) <= TOL * np.max(np.abs(zeta))
