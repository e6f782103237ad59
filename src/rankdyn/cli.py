"""Command-line front end: ranks, decompose, summaries, cv, simulate.

Every command writes its outputs atomically (temp file + rename) into the
--out directory together with a ``run_manifest.json`` that echoes all
resolved parameters.  Re-running a command with ``--config
run_manifest.json`` reproduces the outputs byte-identically: the manifest
stores the resolved bandwidths, so even a CV-selected run replays without
re-selection.

Exit codes: 0 success, 2 usage errors, 1 data, validation or file (OSError) errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import svgplot
from .bandwidth import BandwidthGrid, CvReport, select_bandwidths
from .dynamics import contributions, decompose
from .errors import DataError, DomainError
from .kernels import Kernel, get_kernel
from .ranks import Bandwidths, default_bandwidths, empirical_ranks, smooth_ranks
from .sample import (
    _BATCH_ROWS as _ROWS_PER_WRITE,
    default_presmooth_bandwidth,
    load_long_csv,
    load_wide_csv,
    presmooth,
)
from .simulation import SimModel, run_monte_carlo
from .summaries import population_summaries, subject_summaries

__all__ = ["main"]


class UsageError(Exception):
    pass


def _write_atomic(path: Path, parts) -> None:
    """Write the strings of ``parts`` in order to ``path`` via a temp file and a rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(parts)
    os.replace(tmp, path)


def _csv_field(text: str) -> str:
    """Quote a subject id by CSV rules when it needs it; numeric fields never do."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# A table is (number of rows, columns).  A column is a function from an
# array of row numbers to the list of those rows' CSV fields.


def _fmt_column(x) -> Callable[[np.ndarray], list[str]]:
    """The elements of ``x`` as a column of CSV fields: repr of each as a Python float.

    The string of each distinct float64 bit pattern is formatted once and
    shared by every element that holds it; rank columns repeat a few
    thousand values across hundreds of thousands of fields.  A call looks
    up only the rows asked for: their own distinct patterns, sorted, are
    found among all of them in one sweep.  Keying on bits, not values,
    keeps 0.0 and -0.0 apart.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(np.uint64)
    # the distinct patterns, sorted; numpy 2.4's np.unique hashes uint64 and takes 4x as long
    keys = np.sort(bits)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    text = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)

    def fields(rows: np.ndarray) -> list[str]:
        own, at = np.unique(bits[rows], return_inverse=True)
        return text[np.searchsorted(keys, own)[at]].tolist()

    return fields


def _text_column(fields: list[str]) -> Callable[[np.ndarray], list[str]]:
    text = np.array(fields, dtype=object)
    return lambda rows: text[rows].tolist()


def _grid_table(ids: list[str], grid, *fields) -> tuple[int, list]:
    """Columns id, t and one per (n, G) field, a row per subject and grid point."""
    g = len(grid)
    id_text = np.array(list(map(_csv_field, ids)), dtype=object)
    t_text = np.array(list(map(repr, np.asarray(grid, dtype=float).tolist())), dtype=object)
    columns = [
        lambda rows: id_text[rows // g].tolist(),
        lambda rows: t_text[rows % g].tolist(),
        *map(_fmt_column, fields),
    ]
    return len(ids) * g, columns


def _csv_chunks(header: list[str], tables):
    """The CSV text of the header and the tables' rows, a bounded number of rows at a time."""
    yield ",".join(header) + "\n"
    for size, columns in tables:
        for a in range(0, size, _ROWS_PER_WRITE):
            rows = np.arange(a, min(a + _ROWS_PER_WRITE, size))
            yield "\n".join(map(",".join, zip(*[col(rows) for col in columns]))) + "\n"


def _write_csv(path: Path, header: list[str], *tables) -> None:
    """Write tables of equal-length columns, one after another, as one CSV."""
    _write_atomic(path, _csv_chunks(header, tables))


def _attr_columns(items, names: list[str]) -> list:
    """One float column per attribute name, a row per item."""
    return [_fmt_column([getattr(item, name) for item in items]) for name in names]


def _write_ranks(path: Path, sets) -> None:
    def table(rk):
        # ranks are clamped into [0, 1]; adding 0.0 turns -0.0 into 0.0
        size, columns = _grid_table(rk.ids, rk.eval_grid, np.clip(rk.ranks, 0.0, 1.0) + 0.0)
        return size, [*columns, lambda rows: [rk.method] * rows.size]

    _write_csv(path, ["id", "t", "rank", "method"], *map(table, sets))


def _write_decomposition(path: Path, dec) -> None:
    table = _grid_table(dec.ids, dec.trimmed_grid, dec.c1, dec.c2, dec.rprime)
    _write_csv(path, ["id", "t", "c1", "c2", "rprime"], table)


def _write_subject_summaries(path: Path, subs) -> None:
    names = ["rho", "nu", "zeta", "eta"]
    columns = [_text_column([_csv_field(s.id) for s in subs]), *_attr_columns(subs, names)]
    _write_csv(path, ["id", *names], (len(subs), columns))


def _write_json(path: Path, payload: dict) -> None:
    _write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


@dataclass
class RunConfig:
    """Fully resolved parameters of one CLI run; serialized as the manifest."""

    command: str
    input: str | None = None
    out: str = "."
    wide: bool = False
    kernel: str = "epanechnikov"
    h_y: float | None = None
    h_t: float | None = None
    h_d: float | None = None
    cv_grid: str | None = None
    eval_points: int = 101
    trim: str | float = "auto"
    method: str = "both"
    seed: int = 0
    runs: int = 100
    n: str = "20,50,200"
    m: int = 31
    svg: bool = False
    threads: int = 1


_DEFAULTS = RunConfig(command="")
_FIELD_TYPES = get_type_hints(RunConfig)


def _check_config(path: str, values) -> None:
    """Reject a non-object, a key RunConfig lacks or a mistyped value (null means unset)."""
    if not isinstance(values, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    for name, value in values.items():
        kind = _FIELD_TYPES.get(name)
        if kind is None:
            raise UsageError(f"config file {path!r}: unknown key {name!r}")
        if value is None:
            continue
        if type(value) is int and isinstance(0.0, kind):
            continue  # JSON may write a whole float as an int
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            expected = getattr(kind, "__name__", str(kind))
            raise UsageError(f"config file {path!r}: {name!r} must be {expected}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config_values = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config_values = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"config file {args.config!r} is not valid JSON: {exc}")
        _check_config(args.config, config_values)
    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if name == "command":
            continue
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            setattr(cfg, name, cli_val)
        elif name in config_values and config_values[name] is not None:
            setattr(cfg, name, config_values[name])
        else:
            setattr(cfg, name, getattr(_DEFAULTS, name))
    return cfg


def _load_sample(cfg: RunConfig):
    if cfg.input is None:
        raise UsageError("--input is required for this command")
    loader = load_wide_csv if cfg.wide else load_long_csv
    return loader(cfg.input)


def _parse_grid(spec: str, sample) -> BandwidthGrid:
    """Parse --cv-grid; 'default' and 'KxK' scale h_y to ``sample`` (None: model scale)."""
    spec = spec.strip()
    if spec == "default" or ("x" in spec and ":" not in spec):
        a, _, b = spec.partition("x")
        if spec != "default" and (a != b or not a.isdigit()):
            raise UsageError(f"--cv-grid {spec!r}: only square grids 'KxK' are supported")
        steps = 4 if spec == "default" else int(a)
        if sample is None:
            return BandwidthGrid.geometric(steps=steps)
        return BandwidthGrid.scaled_default(sample, steps=steps)
    pairs = []
    for item in spec.split(","):
        hy, sep, ht = item.partition(":")
        if not sep:
            raise UsageError(
                f"--cv-grid {spec!r}: expected 'default', 'KxK' or 'hY:hT,hY:hT,...'"
            )
        try:
            pair = float(hy), float(ht)
        except ValueError:
            raise UsageError(f"--cv-grid {spec!r}: {item!r} is not a pair of numbers") from None
        pairs.append(Bandwidths(*pair))
    return BandwidthGrid(pairs)


def _kernel(cfg: RunConfig) -> Kernel:
    """The kernel named by --kernel or the config; an unknown name is a usage error."""
    try:
        return get_kernel(cfg.kernel)
    except ValueError as exc:
        raise UsageError(f"--kernel: {exc}") from None


def _resolve_bandwidths(cfg: RunConfig, sample) -> tuple[Bandwidths, CvReport | None]:
    has_pair = cfg.h_y is not None or cfg.h_t is not None
    if has_pair and cfg.cv_grid is not None:
        raise UsageError("--h-y/--h-t and --cv-grid are mutually exclusive")
    if has_pair:
        if cfg.h_y is None or cfg.h_t is None:
            raise UsageError("--h-y and --h-t must be given together")
        return Bandwidths(float(cfg.h_y), float(cfg.h_t)), None
    if cfg.cv_grid is not None:
        report = select_bandwidths(sample, _parse_grid(cfg.cv_grid, sample), kernel=_kernel(cfg))
        return report.chosen, report
    return default_bandwidths(sample), None


def _decomposed(cfg: RunConfig):
    """(smoothed, kernel, pair, decomposition) at --trim ('auto': h_t), checked before the pipeline."""
    trim = None
    if str(cfg.trim).strip().lower() != "auto":
        try:
            trim = float(cfg.trim)
        except ValueError:
            raise UsageError(f"--trim must be 'auto' or a number, got {cfg.trim!r}") from None
        if not 0 < trim < 0.5:
            raise DomainError(f"--trim must lie in (0, 0.5), got {trim!r}")
    sample, smoothed, kern, bw, _ = _pipeline(cfg)
    trim = bw.h_t if trim is None else trim
    cfg.trim = repr(trim)
    return smoothed, kern, bw, decompose(sample, smoothed, bw, trim=trim, kernel=kern)


def _pipeline(cfg: RunConfig, need_bandwidths: bool = True):
    """Shared front half: load, presmooth, resolve bandwidths."""
    kern = _kernel(cfg)
    sample = _load_sample(cfg)
    h_d = cfg.h_d if cfg.h_d is not None else default_presmooth_bandwidth(sample)
    smoothed = presmooth(sample, h_d=h_d, eval_grid_size=int(cfg.eval_points), kernel=kern)
    cfg.h_d = float(h_d)
    if not need_bandwidths:
        return sample, smoothed, kern, None, None
    bw, report = _resolve_bandwidths(cfg, sample)
    # the manifest keeps the resolved pair without the grid: replay skips re-selection
    cfg.h_y, cfg.h_t, cfg.cv_grid = bw.h_y, bw.h_t, None
    return sample, smoothed, kern, bw, report


def _manifest(cfg: RunConfig, outdir: Path) -> None:
    _write_json(outdir / "run_manifest.json", asdict(cfg))


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ranks(cfg: RunConfig) -> int:
    if cfg.method not in ("both", "empirical", "smooth"):
        raise UsageError(f"--method must be 'empirical', 'smooth' or 'both', got {cfg.method!r}")
    sample, smoothed, kern, bw, _ = _pipeline(cfg, need_bandwidths=cfg.method != "empirical")
    out = _outdir(cfg)
    sets = []
    if cfg.method in ("both", "empirical"):
        sets.append(empirical_ranks(smoothed))
    if cfg.method in ("both", "smooth"):
        sets.append(smooth_ranks(smoothed, bw, kernel=kern))
    _write_ranks(out / "ranks.csv", sets)
    if cfg.svg:
        rk = sets[-1]
        svgplot.line_chart(
            out / "rank_trajectories.svg",
            rk.eval_grid,
            list(rk.ranks),
            title=f"{rk.method} rank trajectories",
            y_label="rank",
        )
    _manifest(cfg, out)
    return 0


def _cmd_decompose(cfg: RunConfig) -> int:
    _, _, _, dec = _decomposed(cfg)
    lam = contributions(dec)
    out = _outdir(cfg)
    _write_decomposition(out / "decomposition.csv", dec)
    _write_json(out / "contributions.json", {"lambda1": lam.lambda1, "lambda2": lam.lambda2})
    if cfg.svg:
        svgplot.line_chart(
            out / "components.svg",
            dec.trimmed_grid,
            [dec.c1.mean(axis=0), dec.c2.mean(axis=0)],
            labels=["population C1 (mean)", "individual C2 (mean)"],
            title="rank derivative components",
        )
    _manifest(cfg, out)
    return 0


def _cmd_summaries(cfg: RunConfig) -> int:
    smoothed, kern, bw, dec = _decomposed(cfg)
    rks = smooth_ranks(smoothed, bw, kernel=kern)
    subs = subject_summaries(rks, dec)
    pop = population_summaries(dec)
    out = _outdir(cfg)
    _write_subject_summaries(out / "subject_summaries.csv", subs)
    _write_json(out / "population.json", pop.to_json_dict())
    if cfg.svg:
        svgplot.line_chart(
            out / "gamma.svg",
            dec.trimmed_grid,
            [pop.gamma],
            labels=["gamma(t)"],
            title="rank instability",
            y_label="gamma",
        )
    _manifest(cfg, out)
    return 0


def _cmd_cv(cfg: RunConfig) -> int:
    kern = _kernel(cfg)
    sample = _load_sample(cfg)
    grid = _parse_grid(cfg.cv_grid if cfg.cv_grid is not None else "default", sample)
    report = select_bandwidths(sample, grid, kernel=kern)
    out = _outdir(cfg)
    bws = [e.bw for e in report.entries]
    columns = [*_attr_columns(bws, ["h_y", "h_t"]), *_attr_columns(report.entries, ["value"])]
    _write_csv(out / "cv_report.csv", ["h_y", "h_t", "cv_value"], (len(bws), columns))
    _write_json(out / "chosen.json", {"h_y": report.chosen.h_y, "h_t": report.chosen.h_t})
    cfg.h_y, cfg.h_t = report.chosen.h_y, report.chosen.h_t
    _manifest(cfg, out)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    try:
        n_list = [int(v) for v in str(cfg.n).split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--n must be a comma list of integers, got {cfg.n!r}")
    if not n_list:
        raise UsageError("--n must name at least one sample size")
    model = SimModel(m=int(cfg.m))
    report = run_monte_carlo(
        model,
        n_list,
        runs=int(cfg.runs),
        grid=_parse_grid(cfg.cv_grid or "default", None),
        base_seed=int(cfg.seed),
        kernel=_kernel(cfg),
        eval_points=int(cfg.eval_points),
        h_d=cfg.h_d,
        workers=int(cfg.threads),
    )
    out = _outdir(cfg)
    rows = len(report.rows)
    keys = [_text_column([str(r.run) for r in report.rows]),
            _text_column([str(r.n) for r in report.rows])]
    names = ["h_y_cv", "h_t_cv", "h_y_opt", "h_t_opt",
             "mise_c1_cv", "mise_c2_cv", "mise_c1_opt", "mise_c2_opt"]
    _write_csv(out / "report.csv", ["run", "n", *names],
               (rows, [*keys, *_attr_columns(report.rows, names)]))
    names = ["err_rho", "err_nu", "err_zeta"]
    _write_csv(out / "summary_errors.csv", ["run", "n", *names],
               (rows, [*keys, *_attr_columns(report.rows, names)]))
    if cfg.svg:
        for label, key in [("cv", lambda r: r.mise_c1_cv + r.mise_c2_cv),
                           ("opt", lambda r: r.mise_c1_opt + r.mise_c2_opt)]:
            series = [sorted(key(r) for r in report.rows if r.n == n) for n in n_list]
            svgplot.line_chart(
                out / f"mise_{label}.svg",
                np.arange(1, 1 + max(len(s) for s in series)),
                [np.array(s) for s in series],
                labels=[f"n={n}" for n in n_list],
                title=f"sorted total MISE at the {label} pick",
                x_label="run (sorted)",
                y_label="MISE",
            )
    _manifest(cfg, out)
    return 0


_COMMANDS = {
    "ranks": _cmd_ranks,
    "decompose": _cmd_decompose,
    "summaries": _cmd_summaries,
    "cv": _cmd_cv,
    "simulate": _cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdyn",
        description="Rank trajectories and rank-derivative decomposition for functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "ranks": "estimate empirical and smooth rank trajectories",
        "decompose": "estimate the C1/C2 decomposition of rank derivatives",
        "summaries": "subject and population rank summary statistics",
        "cv": "bandwidth selection by leave-one-out cross-validation",
        "simulate": "Monte Carlo benchmark against the closed-form model",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="input CSV (long format id,time,value)")
        p.add_argument("--wide", action="store_true", default=None,
                       help="input is wide format: time,id1,id2,...")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--kernel", help="smoothing kernel: epanechnikov (default) or biweight")
        p.add_argument("--h-y", dest="h_y", type=float, help="value-direction bandwidth")
        p.add_argument("--h-t", dest="h_t", type=float, help="time-direction bandwidth")
        p.add_argument("--h-d", dest="h_d", type=float, help="presmoothing bandwidth")
        p.add_argument("--cv-grid", dest="cv_grid",
                       help="bandwidth grid: 'default', 'KxK', or 'hY:hT,hY:hT,...'")
        p.add_argument("--eval-points", dest="eval_points", type=int,
                       help="size of the uniform evaluation grid (default 101)")
        p.add_argument("--trim", help="boundary trim: 'auto' (= h_t) or a number")
        p.add_argument("--method", help="rank method(s) for the ranks command: "
                       "both (default), empirical or smooth")
        p.add_argument("--seed", type=int, help="base seed (simulate)")
        p.add_argument("--runs", type=int, help="Monte Carlo runs (simulate)")
        p.add_argument("--n", help="comma list of sample sizes (simulate)")
        p.add_argument("--m", type=int, help="observation grid parameter (simulate)")
        p.add_argument("--svg", action="store_true", default=None, help="emit SVG figures")
        p.add_argument("--threads", type=int, help="worker cap for parallel sections")
        p.add_argument("--config", help="JSON config file (flags override it)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
