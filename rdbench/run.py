"""rankdyn benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage, from the root of a rankdyn checkout:

    python3 rdbench/run.py --workload cli_shared --seed 1 --seconds 27 --trace 0
    python3 rdbench/run.py --workload cli_shared --seed 1 --seconds 27 --trace 1
    python3 rdbench/run.py --workload all --seed 1 --seconds 27 --trace 0
    python3 rdbench/run.py --workload cli_shared --smoke     # tiny sizes, for tests

The package is imported from ``src/`` of the checkout; the inputs are made
from ``--seed`` before any timing starts.  The op sequence is repeated until
``--seconds`` would be exceeded (at least three times) and timings are
medians over the repetitions; ``setup_s`` spawns are spread over the same
window.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
untraced and traced repetitions alternate and it holds the per-layer
metrics plus ``trace.overhead_s``.  ``--save FILE`` also writes the full
record (machine, every metric, problems) as JSON.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; recorded with every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_REPS = 3
SETUP_SPAWNS = 5
COMMAND_METRICS = {"cv": "cv_s", "decompose": "decompose_s", "summaries": "summaries_s",
                   "ranks": "ranks_s", "mc_run": "mc_run_s"}
# Printed and saved, but not in BENCHMARK.json: not every workload has them,
# fail_share is 0 when correct, and mise_cv depends on the seed's sample.
EXTRA_UNITS = {**{m: "s" for m in COMMAND_METRICS.values()}, "mise_cv": "1",
               "cv_h_y": "value", "cv_h_t": "time", "fail_share": "fraction"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import rankdyn.cli.

    Called after this process imported rankdyn, so byte-code caches exist.
    """
    start = time.perf_counter()
    # wait() without a timeout blocks in waitpid; with one it polls in 50 ms steps
    code = subprocess.Popen([sys.executable, "-c", "import rankdyn.cli"], env=_env(), cwd=ROOT).wait()
    if code:
        raise RuntimeError(f"importing rankdyn.cli in a fresh interpreter exited with code {code}")
    return time.perf_counter() - start


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def run_sequence(workload, tracer, first: bool):
    from workloads import OpFailed, Sequence

    seq = Sequence(tracer=tracer)
    try:
        workload.run(seq, first)
    except OpFailed:
        pass
    except Exception as exc:  # a check that cannot read an output fails its op
        seq.fail("checks", f"raised {exc!r}")
    return seq


def run_all(args, names: list[str]) -> int:
    """Each workload in its own fresh process, one after the other.

    The last line merges their result lines, with metric names prefixed
    by the workload.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.save:
            cmd += ["--save", str(args.save.with_name(f"{args.save.stem}_{name}{args.save.suffix}"))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    parser.add_argument("--save", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    if not (SRC / "rankdyn" / "__init__.py").is_file():
        print(f"error: no rankdyn package under {SRC}; run from a rankdyn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = _spec()
    rd = {name: importlib.import_module(f"rankdyn.{name}") for name in ("cli", "simulation", "bandwidth")}
    setup = []  # fresh-interpreter imports, spread over the run like the passes

    workroot = ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        kind = workloads.WORKLOADS[args.workload]
        # One untimed pass at smoke size loads lazy imports and warms the code paths.
        (workdir / "warm").mkdir()
        warm = run_sequence(kind(workdir / "warm", args.seed, True, rd), None, first=True)
        wl = kind(workdir, args.seed, args.smoke, rd)
        plain, traced, rounds = [], [], []
        tracer = tracing.Tracer(rd)
        start = time.perf_counter()
        while not warm.failed:
            round_start = time.perf_counter()
            if not args.trace:
                setup.append(measure_setup())
            plain.append(run_sequence(wl, None, first=not plain))
            if args.trace:
                with tracer.active():
                    seq = run_sequence(wl, tracer, first=False)
                traced.append((seq, tracing.sequence_metrics(tracer.take())))
            rounds.append(time.perf_counter() - round_start)
            if args.smoke or any(s.failed for s in (plain[-1], *[t for t, _ in traced[-1:]])):
                break
            if len(rounds) >= MIN_REPS and time.perf_counter() - start + median(rounds) > args.seconds:
                break
        while not args.trace and len(setup) < (1 if args.smoke else SETUP_SPAWNS):
            setup.append(measure_setup())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    seqs = [warm] + plain + [t for t, _ in traced]
    attempted = sum(s.attempted for s in seqs)
    failed = sum(s.failed for s in seqs)
    problems = [p for s in seqs for p in s.problems]
    ok_plain = [s for s in plain if not s.failed] or plain or [warm]
    wall = median([s.wall_s for s in ok_plain])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    report = {}  # every metric of this run, including those only some workloads have
    if args.trace:
        traced = traced or [(warm, tracing.sequence_metrics([]))]  # a failed warm-up
        layer = {k: median([m[k] for _, m in traced]) for k in traced[0][1]}
        layer["cli.bytes_written"] = median([t.bytes_written for t, _ in traced])
        layer["trace.overhead_s"] = median([t.wall_s for t, _ in traced]) - wall
        report.update(layer)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        report["setup_s"] = median(setup)
        report["wall_s"] = wall
        report["obs_per_s"] = wl.observations / wall if wall else 0.0
        report["peak_rss_mb"] = peak_rss_mb
        names = [m["name"] for m in spec["end_to_end"]]
    for label, metric in COMMAND_METRICS.items():
        if label in ok_plain[0].seconds:
            report[metric] = median([s.seconds[label] for s in ok_plain if label in s.seconds])
    report.update(wl.extra)
    report["fail_share"] = failed / attempted

    info = machine()
    print(f"rdbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(plain)}{f'+{len(traced)} traced' if traced else ''} "
          f"attempted={attempted} failed={failed}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, value in report.items():
        print(f"  {name:40s} {value:>18.6g} {units.get(name) or EXTRA_UNITS[name]}")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": report[name], "unit": units[name]} for name in names},
    }
    if args.save:
        args.save.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "repetitions": len(plain), "rep_wall_s": [q.wall_s for q in plain],
            "setup_spawns_s": setup, "machine": info, "metrics": report,
            "problems": problems, "result": result,
        }, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
