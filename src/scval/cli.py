"""Command-line driver.

Subcommands: scf, gen, validate, stats, grad, md.  Exit codes: 0 on
success, 1 for usage or input-parsing problems, 2 for domain failures
(non-convergence, exhausted generation, insufficient data).  Every run
writes the fully resolved configuration next to its outputs so any
result can be reproduced from the artifact directory alone.
"""

from __future__ import annotations

import argparse
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping

import numpy as np

from . import matcore, mdsim, model, scf, stats, surrogate, validator
from .errors import FileFormatError, NoConvergence, ScvalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

_NORMS = ("frobenius", "mae")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for domain
    failures, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Config plumbing.


def _load_config(path) -> dict:
    if path is None:
        return {}
    return model.read_config(path)


def _resolve_norm(args, cfg) -> str:
    norm = args.norm or cfg.get("norm", "frobenius")
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
    return norm


def _scf_config(cfg: Mapping, norm: str) -> scf.ScfConfig:
    return scf.ScfConfig(
        max_iter=int(cfg.get("scf.max_iter", 200)),
        tol=float(cfg.get("scf.tol", 1e-9)),
        damping=float(cfg.get("scf.damping", 0.3)),
        diis_depth=int(cfg.get("scf.diis_depth", 8)),
        diis_start=int(cfg.get("scf.diis_start", 2)),
        norm=norm,
    )


def _params_items(p: model.ModelParams) -> list:
    items = []
    for name in ("t0", "beta", "alpha", "r0", "hubbard_u", "eps0",
                 "q_ref", "rep_a", "rep_rho"):
        value = getattr(p, name)
        if isinstance(value, Mapping):
            for key in sorted(value):
                suffix = "" if key == "*" else f".{key}"
                items.append((f"{name}{suffix}", value[key]))
        else:
            items.append((name, value))
    return items


def _write_resolved_config(out: Path, entries: list) -> None:
    """Flat key=value record of everything the run actually used."""
    lines = []
    for key, value in entries:
        lines.append(f"{key} = {model._fmt_value(value)}")
    (out / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _common_entries(args, norm, p, scf_cfg) -> list:
    entries = [("command", args.command), ("seed", args.seed), ("norm", norm)]
    entries += _params_items(p)
    entries += [
        ("scf.max_iter", scf_cfg.max_iter),
        ("scf.tol", scf_cfg.tol),
        ("scf.damping", scf_cfg.damping),
        ("scf.diis_depth", scf_cfg.diis_depth),
        ("scf.diis_start", scf_cfg.diis_start),
    ]
    return entries


def _floats(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated float list, got {text!r}")


def _row_seed(seed: int, *parts) -> int:
    """Deterministic per-row seed, independent of evaluation order."""
    tag = ":".join(str(p) for p in (seed,) + parts)
    return (int(seed) << 32) ^ zlib.crc32(tag.encode())


# ---------------------------------------------------------------------------
# scf


def _write_solution(out: Path, sol: model.ScfSolution, trace, g) -> None:
    matcore.write_scvm(out / "H.scvm", sol.hamiltonian)
    matcore.write_scvm(out / "D.scvm", sol.density)
    matcore.write_scvm(out / "S.scvm", sol.overlap)
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"converged = {int(sol.converged)}\n")
        fh.write(f"iterations = {sol.iterations}\n")
        fh.write(f"n_atoms = {g.n_atoms}\n")
        fh.write(f"n_electrons = {g.n_electrons}\n")
        fh.write(f"e_total = {sol.e_total:.17g}\n")
        fh.write(f"gap = {sol.gap:.17g}\n")
        fh.write(f"strict_diis = {sol.strict_diis:.17g}\n")
    scf.write_trace_csv(out / "trace.csv", trace)


def cmd_scf(args) -> int:
    g = model.load_geometry(args.geometry)
    cfg = _load_config(args.config)
    norm = _resolve_norm(args, cfg)
    p = model.model_params_from_config(cfg)
    scf_cfg = _scf_config(cfg, norm)
    out = _outdir(args)
    _write_resolved_config(
        out, _common_entries(args, norm, p, scf_cfg) + [("geometry", args.geometry)]
    )
    try:
        sol, trace = scf.scf_trace(g, p, scf_cfg)
    except NoConvergence as exc:
        print(f"scf: {exc}", file=sys.stderr)
        if exc.best is not None:
            _write_solution(out, exc.best, exc.trace or [], g)
        return EXIT_DOMAIN
    _write_solution(out, sol, trace, g)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    g = model.load_geometry(args.geometry)
    cfg = _load_config(args.config)
    norm = _resolve_norm(args, cfg)
    p = model.model_params_from_config(cfg)
    scf_cfg = _scf_config(cfg, norm)
    ds = surrogate.generate_dataset(
        g,
        p,
        args.n,
        mode=args.mode,
        amplitude=args.amplitude,
        temperature=args.temperature,
        seed=args.seed,
        scf_cfg=scf_cfg,
        md_dt=args.md_dt,
        md_stride=args.md_stride,
        md_burnin=args.md_burnin,
        md_tau=args.md_tau,
    )
    out = _outdir(args)
    surrogate.save_dataset(ds, out)
    _write_resolved_config(
        out,
        _common_entries(args, norm, p, scf_cfg)
        + [
            ("geometry", args.geometry),
            ("gen.n", args.n),
            ("gen.mode", args.mode),
            ("gen.amplitude", args.amplitude),
            ("gen.temperature", args.temperature),
            ("gen.md_dt", args.md_dt),
            ("gen.md_stride", args.md_stride),
            ("gen.md_burnin", args.md_burnin),
            ("gen.md_tau", args.md_tau),
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _kernel_from_args(args, fallback_ds=None):
    train_path = getattr(args, "train", None)
    if train_path:
        train = surrogate.load_dataset(train_path)
    elif fallback_ds is not None:
        train = fallback_ds
    else:
        raise ValueError("kernel predictor needs --train DIR")
    return surrogate.kernel_fit(
        train, bandwidth=args.bandwidth, k_neighbors=args.k
    ), train


def cmd_validate(args) -> int:
    ds = surrogate.load_dataset(args.dataset)
    cfg = _load_config(args.config)
    norm = _resolve_norm(args, cfg)
    p = model.model_params_from_config(cfg)
    scf_cfg = _scf_config(cfg, norm)
    extra = [
        ("validate.dataset", args.dataset),
        ("validate.predictor", args.predictor),
    ]

    tasks = []  # (system, callable producing a Prediction, entry)
    if args.predictor == "oracle-noise":
        sigmas_h = _floats(args.sigma)
        sigmas_d = _floats(args.sigma_d) if args.sigma_d else sigmas_h
        if len(sigmas_d) != len(sigmas_h):
            raise ValueError("--sigma and --sigma-d must have equal lengths")
        extra += [
            ("validate.sigma", args.sigma),
            ("validate.sigma_d", args.sigma_d or args.sigma),
            ("validate.repeat", args.repeat),
            ("validate.shared_noise", int(args.shared_noise)),
        ]
        for i, entry in enumerate(ds.entries):
            for j, (sh, sd) in enumerate(zip(sigmas_h, sigmas_d)):
                for k in range(args.repeat):
                    system = f"{i:04d}:s{j}:r{k}"
                    seed = _row_seed(args.seed, i, j, k)

                    def make(entry=entry, sh=sh, sd=sd, seed=seed):
                        return surrogate.oracle_noise_predict(
                            entry.solution, sh, sd, seed=seed,
                            shared_noise=args.shared_noise,
                        )

                    tasks.append((system, make, entry))
    elif args.predictor == "kernel":
        km, train = _kernel_from_args(args)
        extra += [
            ("validate.train", args.train),
            ("validate.bandwidth", km.bandwidth),
            ("validate.k", km.k_neighbors),
        ]
        for i, entry in enumerate(ds.entries):
            def make(entry=entry):
                return surrogate.kernel_predict(km, entry.geometry)

            tasks.append((f"{i:04d}", make, entry))
    elif args.predictor == "external-file":
        if not args.pred:
            raise ValueError("external-file predictor needs --pred DIR")
        extra.append(("validate.pred", args.pred))
        pred_root = Path(args.pred)
        for i, entry in enumerate(ds.entries):
            sub = pred_root / f"{i:04d}"

            def make(sub=sub):
                _, pred, _ = validator.read_prediction_dir(sub)
                return pred

            tasks.append((f"{i:04d}", make, entry))
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown predictor {args.predictor!r}")

    def run(task):
        system, make, entry = task
        pred = make()
        return validator.full_report(
            pred, entry.solution, entry.geometry, p, norm=norm, system=system
        )

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(run, tasks))
    else:
        reports = [run(t) for t in tasks]

    out = _outdir(args)
    validator.write_reports_csv(out / "reports.csv", reports)
    _write_resolved_config(out, _common_entries(args, norm, p, scf_cfg) + extra)
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    reports = validator.read_reports_csv(args.reports)
    cfg = _load_config(args.config)
    norm = _resolve_norm(args, cfg)
    targets = tuple(
        tok.strip() for tok in args.targets.split(",") if tok.strip()
    )
    results = stats.correlation_report(
        reports,
        condition=args.condition,
        targets=targets,
        n_bins=args.bins,
        scheme=args.scheme,
        min_count=args.min_count,
    )
    out = _outdir(args)
    stats.write_summary_csv(out / "summary.csv", results, args.condition)
    xs = stats.series(reports, args.condition)
    for target, entry in results.items():
        stats.write_binned_csv(out / f"binned_{target}.csv", entry.bins)
        ys = stats.series(reports, target)
        stats.write_plot_data_csv(out / f"plotdata_{target}.csv", xs, ys, entry)
    _write_resolved_config(
        out,
        [
            ("command", args.command),
            ("seed", args.seed),
            ("norm", norm),
            ("stats.reports", args.reports),
            ("stats.condition", args.condition),
            ("stats.targets", ",".join(targets)),
            ("stats.bins", args.bins),
            ("stats.scheme", args.scheme),
            ("stats.min_count", args.min_count),
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# grad


def cmd_grad(args) -> int:
    g = model.load_geometry(args.geometry)
    cfg = _load_config(args.config)
    norm = _resolve_norm(args, cfg)
    p = model.model_params_from_config(cfg)
    scf_cfg = _scf_config(cfg, norm)
    km, _ = _kernel_from_args(args)
    predictor = lambda gg: surrogate.kernel_predict(km, gg)
    grad = validator.self_diis_position_gradient(
        g, p, predictor, step=args.step, norm=norm
    )
    out = _outdir(args)
    with open(out / "gradient.csv", "w", newline="") as fh:
        fh.write("atom,species,gx,gy,gz,magnitude\n")
        for i in range(g.n_atoms):
            gx, gy, gz = grad[i]
            mag = float(np.linalg.norm(grad[i]))
            fh.write(
                f"{i},{g.species[i]},{gx:.17g},{gy:.17g},{gz:.17g},{mag:.17g}\n"
            )
    _write_resolved_config(
        out,
        _common_entries(args, norm, p, scf_cfg)
        + [
            ("geometry", args.geometry),
            ("grad.train", args.train),
            ("grad.step", args.step),
            ("grad.bandwidth", km.bandwidth),
            ("grad.k", km.k_neighbors),
        ],
    )
    print(f"gradient norm {float(np.linalg.norm(grad)):.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# md


def cmd_md(args) -> int:
    g = model.load_geometry(args.geometry)
    cfg = _load_config(args.config)
    norm = _resolve_norm(args, cfg)
    p = model.model_params_from_config(cfg)
    scf_cfg = _scf_config(cfg, norm)
    masses = model.masses_from_config(cfg, g.species)

    predictor = None
    threshold = args.threshold
    extra = []
    if args.mode in ("surrogate_only", "predictor_corrector"):
        km, train = _kernel_from_args(args)
        predictor = lambda gg: surrogate.kernel_predict(km, gg)
        extra += [
            ("md.train", args.train),
            ("md.bandwidth", km.bandwidth),
            ("md.k", km.k_neighbors),
        ]
        if args.mode == "predictor_corrector" and threshold is None:
            if args.calibrate_percentile is None:
                raise ValueError(
                    "predictor_corrector needs --threshold or "
                    "--calibrate-percentile"
                )
            loo = surrogate.kernel_loo(
                train, bandwidth=args.bandwidth, k_neighbors=args.k, norm=norm
            )
            threshold = float(
                np.percentile(loo["self_diis"], args.calibrate_percentile)
            )
            extra.append(
                ("md.calibrate_percentile", args.calibrate_percentile)
            )

    md_cfg = mdsim.MdConfig(
        n_steps=args.steps,
        t_target=args.t_target,
        dt=args.dt,
        tau=args.tau,
        threshold=threshold,
        mode=args.mode,
        seed=args.seed,
        norm=norm,
    )
    result = mdsim.run_md(g, p, md_cfg, predictor=predictor, masses=masses,
                          scf_cfg=scf_cfg)
    out = _outdir(args)
    mdsim.write_trajectory_xyz(out / "trajectory.xyz", result, g, args.dt)
    mdsim.write_steps_csv(out / "steps.csv", result)
    temps = result.temperatures
    half = temps[len(temps) // 2:] if len(temps) else np.array([float("nan")])
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"frames = {len(result.frames)}\n")
        fh.write(f"diverged = {int(result.diverged)}\n")
        fh.write(f"aborted = {result.aborted or 'none'}\n")
        fh.write(f"mean_t_last_half = {float(half.mean()):.17g}\n")
    _write_resolved_config(
        out,
        _common_entries(args, norm, p, scf_cfg)
        + [
            ("geometry", args.geometry),
            ("md.mode", args.mode),
            ("md.steps", args.steps),
            ("md.t_target", args.t_target),
            ("md.dt", args.dt),
            ("md.tau", args.tau),
            ("md.threshold", threshold if threshold is not None else ""),
        ]
        + extra,
    )
    if result.aborted:
        print(f"md: aborted: {result.aborted}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, default=0,
                        help="global random seed (default 0)")
    common.add_argument("--norm", choices=_NORMS,
                        help="residual norm (default frobenius)")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker threads where supported (default 1)")
    common.add_argument("--out", default=".",
                        help="output directory (default current)")

    kernel_flags = _Parser(add_help=False)
    kernel_flags.add_argument("--train", help="training dataset directory")
    kernel_flags.add_argument("--bandwidth", type=float,
                              help="kernel bandwidth (default: median NN)")
    kernel_flags.add_argument("--k", type=int, default=8,
                              help="neighbors averaged (default 8)")

    parser = _Parser(prog="scval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scf = sub.add_parser("scf", parents=[common],
                           help="solve one geometry to self-consistency")
    p_scf.add_argument("geometry", help="extended-XYZ input")
    p_scf.set_defaults(func=cmd_scf)

    p_gen = sub.add_parser("gen", parents=[common],
                           help="generate a labeled dataset")
    p_gen.add_argument("geometry")
    p_gen.add_argument("--n", type=int, required=True,
                       help="number of entries")
    p_gen.add_argument("--mode", choices=("random_perturb", "md_sample"),
                       default="random_perturb")
    p_gen.add_argument("--amplitude", type=float, default=0.05,
                       help="perturbation amplitude in A (random_perturb)")
    p_gen.add_argument("--temperature", type=float, default=300.0,
                       help="sampling temperature in K (md_sample)")
    p_gen.add_argument("--md-dt", type=float, default=0.5)
    p_gen.add_argument("--md-stride", type=int, default=10)
    p_gen.add_argument("--md-burnin", type=int, default=100)
    p_gen.add_argument("--md-tau", type=float, default=100.0)
    p_gen.set_defaults(func=cmd_gen)

    p_val = sub.add_parser("validate", parents=[common, kernel_flags],
                           help="score predictions against a labeled dataset")
    p_val.add_argument("--dataset", required=True,
                       help="labeled dataset directory")
    p_val.add_argument("--predictor", required=True,
                       choices=("oracle-noise", "kernel", "external-file"))
    p_val.add_argument("--sigma", default="0.001",
                       help="comma list of H noise amplitudes (oracle-noise)")
    p_val.add_argument("--sigma-d",
                       help="comma list of D noise amplitudes "
                            "(default: same as --sigma)")
    p_val.add_argument("--repeat", type=int, default=1,
                       help="noise draws per (entry, sigma)")
    p_val.add_argument("--shared-noise", action="store_true",
                       help="reuse one noise draw for H and D")
    p_val.add_argument("--pred", help="external prediction root dir")
    p_val.set_defaults(func=cmd_validate)

    p_stats = sub.add_parser("stats", parents=[common],
                             help="binned correlation report from a CSV")
    p_stats.add_argument("--reports", required=True, help="reports.csv path")
    p_stats.add_argument("--condition", default="self_diis")
    p_stats.add_argument("--targets",
                         default=",".join(stats.DEFAULT_TARGETS))
    p_stats.add_argument("--bins", type=int, default=20)
    p_stats.add_argument("--scheme", choices=("equal_count", "equal_width"),
                         default="equal_count")
    p_stats.add_argument("--min-count", type=int, default=5)
    p_stats.set_defaults(func=cmd_stats)

    p_grad = sub.add_parser("grad", parents=[common, kernel_flags],
                            help="self-consistency gradient of a predictor")
    p_grad.add_argument("geometry")
    p_grad.add_argument("--step", type=float, default=1e-4,
                        help="central-difference step in A")
    p_grad.set_defaults(func=cmd_grad)

    p_md = sub.add_parser("md", parents=[common, kernel_flags],
                          help="velocity-Verlet trajectory")
    p_md.add_argument("geometry")
    p_md.add_argument("--mode", required=True,
                      choices=("exact", "surrogate_only",
                               "predictor_corrector"))
    p_md.add_argument("--steps", type=int, required=True)
    p_md.add_argument("--t-target", type=float, required=True,
                      help="target temperature in K")
    p_md.add_argument("--dt", type=float, default=0.5, help="time step, fs")
    p_md.add_argument("--tau", type=float, default=100.0,
                      help="thermostat time constant, fs (inf for NVE)")
    p_md.add_argument("--threshold", type=float,
                      help="self-consistency gate (predictor_corrector)")
    p_md.add_argument("--calibrate-percentile", type=float,
                      help="derive the gate from this percentile of the "
                           "training leave-one-out residuals")
    p_md.set_defaults(func=cmd_md)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
