"""The four workloads: inputs made from the seed, the op sequence, its checks.

An op is one CLI command (``rankdyn.cli.main``) or one Monte Carlo row.
Each workload repeats one fixed op sequence on the same inputs; the first
repetition's outputs get the full checks, later ones must be byte-identical
to it.  Every check that fails marks its op as failed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import model

M_SHARED = 31
SHARED_GRID = np.arange(M_SHARED + 1) / M_SHARED  # the verification grid {j/31 : j = 0..31}
CV_PAIRS = 16  # the CLI's default grid is 4 x 4
# Total C1 + C2 MISE at the CV pick for n = 200 is about 0.9-1.1 on the seed
# commit; a wrong decomposition lands far above this limit.
MC_MISE_LIMIT = 4.0
WHY = {
    "mc_verify": "the paper's own verification loop (96% of tier-1 time); "
    "dominated by dynamics.decompose_many and shared-grid CV",
    "cli_shared": "an analyst's full CLI pipeline on one large shared-grid sample; "
    "smooth_ranks and decompose dominate, so engine changes show here",
    "cli_ragged": "real data is ragged: one grid per subject, CV runs the ragged path "
    "and presmoothing cannot share a per-grid smoother",
    "cli_ingest": "bulk CSV ingest, empirical ranks and row writes with no bandwidths, "
    "engine or CV; engine and CV changes should not move it",
}
SIZES = {
    # full size, smoke size
    "mc_verify": ([20, 50, 200], [20]),
    "cli_shared": (300, 30),
    "cli_ragged": (30, 8),
    "cli_ingest": (5000, 200),
}


class OpFailed(Exception):
    """Stops the rest of a sequence after an op raised or exited non-zero."""


@dataclass
class Sequence:
    """Timings and outcomes of one pass over a workload's op sequence."""

    tracer: object = None  # a tracing.Tracer for a traced pass
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    seconds: dict[str, float] = field(default_factory=dict)  # per op label
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())

    def timed(self, label: str, name: str, fn, *args, ops: int = 1):
        self.attempted += ops
        if self.tracer is not None:
            self.tracer.op += 1
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.call(name, fn, args)
            else:
                result = fn(*args)
        except Exception as exc:  # an op that raises counts as failed
            self.fail(label, f"raised {exc!r}", ops)
            raise OpFailed(label) from exc
        self.seconds[label] = time.perf_counter() - start
        return result

    def fail(self, label: str, problem: str, ops: int = 1):
        self.failed += ops
        self.problems.append(f"{label}: {problem}")

    def check(self, label: str, problems: list[str], ops: int = 1):
        if problems:
            self.fail(label, "; ".join(problems), ops)


def _digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, smoke: bool, rankdyn: dict):
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.rd = rankdyn
        self.size = SIZES[self.name][1 if smoke else 0]
        self.digests: dict[str, str] = {}
        self.extra: dict[str, float] = {}  # metrics only this workload has
        self.observations = 0  # pooled observations x commands, per sequence
        self.generate(np.random.default_rng(seed))

    def generate(self, rng):
        raise NotImplementedError

    def run(self, seq: Sequence, first: bool):
        raise NotImplementedError

    def same_as_first(self, seq: Sequence, label: str, digest: str, ops: int = 1):
        if self.digests.setdefault(label, digest) != digest:
            seq.fail(label, "output differs from the first repetition", ops)


class McVerify(Workload):
    """One Monte Carlo replicate of the acceptance mix, serial."""

    name = "mc_verify"

    def generate(self, rng):
        sim = self.rd["simulation"]
        bw = self.rd["bandwidth"]
        self.model = sim.SimModel(m=M_SHARED)
        self.grid = bw.BandwidthGrid.geometric(steps=2 if self.smoke else 4)
        self.pairs = {(p.h_y, p.h_t) for p in self.grid.pairs}
        self.observations = sum(self.size) * (M_SHARED + 1)

    def run(self, seq: Sequence, first: bool):
        sim = self.rd["simulation"]
        ops = len(self.size)
        report = seq.timed(
            "mc_run", "simulation.run_monte_carlo", sim.run_monte_carlo,
            self.model, self.size, 1, self.grid, self.seed, ops=ops,
        )
        rows = report.rows
        if first:
            seq.check("mc_run", checks.check_mc_rows(rows, self.size, self.pairs), ops)
            last = rows[-1]
            self.extra["mise_cv"] = last.mise_c1_cv + last.mise_c2_cv
            if not self.smoke and not self.extra["mise_cv"] <= MC_MISE_LIMIT:
                seq.fail("mc_run", f"MISE at the CV pick {self.extra['mise_cv']!r} > {MC_MISE_LIMIT}", ops)
        self.same_as_first(seq, "mc_run", hashlib.sha256(repr(rows).encode()).hexdigest(), ops)


class CliWorkload(Workload):
    """Workloads that write a long-format CSV and drive ``rankdyn.cli.main``."""

    def write_input(self, times, values) -> int:
        """Write the long-format input CSV; returns its number of data rows."""
        self.ids = [f"s{i + 1:05d}" for i in range(len(times))]
        self.csv = self.workdir / "input.csv"
        lines = ["id,time,value"]
        for sid, ts, vs in zip(self.ids, times, values):
            lines.extend(f"{sid},{t!r},{v!r}" for t, v in zip(ts.tolist(), vs.tolist()))
        self.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return len(lines) - 1

    def cli(self, seq: Sequence, label: str, *argv: str) -> Path:
        out = self.workdir / label
        code = seq.timed(label, "cli.main", self.rd["cli"].main,
                         [label, "--input", str(self.csv), "--out", str(out), *argv])
        if code != 0:
            seq.fail(label, f"exit code {code}")
            raise OpFailed(label)
        self.same_as_first(seq, label, _digest_dir(out))
        seq.bytes_written += sum(f.stat().st_size for f in out.iterdir())
        return out

    def chosen_pair(self, seq: Sequence, first: bool):
        out = self.cli(seq, "cv")
        if first:
            problems, self.bw = checks.check_cv(out, CV_PAIRS)
            seq.check("cv", problems)
            self.extra["cv_h_y"], self.extra["cv_h_t"] = self.bw
        return ["--h-y", repr(self.bw[0]), "--h-t", repr(self.bw[1])]

    def manifest_h_d(self, out: Path) -> float:
        return json.loads((out / "run_manifest.json").read_text())["h_d"]


class CliShared(CliWorkload):
    """cv, then decompose, summaries and ranks --method both at the pick."""

    name = "cli_shared"

    def generate(self, rng):
        self.xi = model.draw_scores(rng, self.size)
        self.values = self.xi @ model.basis(SHARED_GRID)[0].T
        self.observations = 4 * self.write_input([SHARED_GRID] * self.size, self.values)

    def run(self, seq: Sequence, first: bool):
        pair = self.chosen_pair(seq, first)
        dec = self.cli(seq, "decompose", *pair)
        summ = self.cli(seq, "summaries", *pair)
        ranks = self.cli(seq, "ranks", "--method", "both", *pair)
        if not first:
            return
        egrid = checks.eval_grid()
        tgrid = checks.trimmed(egrid, self.bw[1])
        problems, (c1, c2) = checks.check_decomposition(dec, self.ids, tgrid)
        seq.check("decompose", problems)
        seq.check("summaries", checks.check_summaries(summ, self.ids, tgrid))
        problems, smooth = checks.check_ranks(ranks, self.ids, {"empirical": egrid, "smooth": tgrid})
        seq.check("ranks", problems)
        if smooth is not None:
            seq.check("oracle", checks.check_oracle_shared(
                SHARED_GRID, self.values, self.manifest_h_d(dec), self.bw, tgrid, smooth, c1, c2,
            ))
        self.extra["mise_cv"] = checks.mise(self.xi, tgrid, c1, c2)


class CliRagged(CliWorkload):
    """cv, then summaries at the pick, on one jittered grid per subject."""

    name = "cli_ragged"

    def generate(self, rng):
        n = self.size
        # a fixed multiset of grid sizes in [25, 40], so the work per seed is the same
        sizes = rng.permutation([25 + (15 * i) // max(n - 1, 1) for i in range(n)])
        times = [(np.arange(m) + rng.uniform(0.05, 0.95, m)) / m for m in sizes]
        xi = model.draw_scores(rng, n)
        values = [model.basis(t)[0] @ x for x, t in zip(xi, times)]
        self.observations = 2 * self.write_input(times, values)

    def run(self, seq: Sequence, first: bool):
        pair = self.chosen_pair(seq, first)
        summ = self.cli(seq, "summaries", *pair)
        if first:
            tgrid = checks.trimmed(checks.eval_grid(), self.bw[1])
            seq.check("summaries", checks.check_summaries(summ, self.ids, tgrid))


class CliIngest(CliWorkload):
    """ranks --method empirical on many curves: parse, presmooth, rank, write."""

    name = "cli_ingest"

    def generate(self, rng):
        values = model.draw_scores(rng, self.size) @ model.basis(SHARED_GRID)[0].T
        self.observations = self.write_input([SHARED_GRID] * self.size, values)

    def run(self, seq: Sequence, first: bool):
        ranks = self.cli(seq, "ranks", "--method", "empirical")
        if first:
            problems, _ = checks.check_ranks(ranks, self.ids, {"empirical": checks.eval_grid()})
            seq.check("ranks", problems)


WORKLOADS = {w.name: w for w in (McVerify, CliShared, CliRagged, CliIngest)}
