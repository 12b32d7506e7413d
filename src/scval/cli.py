"""Command-line driver.

Subcommands: scf, gen, validate, stats, grad, md.  Exit codes: 0 on
success, 1 for usage or input-parsing problems, 2 for domain failures
(non-convergence, exhausted generation, insufficient data).  Every run
writes the fully resolved configuration next to its outputs so any
result can be reproduced from the artifact directory alone.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import matcore, mdsim, model, scf, stats, surrogate, validator
from .errors import FileFormatError, NoConvergence, ScvalError
from .rng import substream

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


# The config keys some setting reads: the model fields, each species
# field's and the mass's ``.X`` overrides, ``mass``, ``norm`` and
# ``scf.<field>`` (the norm is set by ``norm`` alone).
_CONFIG_KEYS = frozenset(
    [f.name for f in fields(model.ModelParams)] + ["mass", "norm"]
    + [f"scf.{f.name}" for f in fields(scf.ScfConfig) if f.name != "norm"]
)
_OVERRIDES = tuple(f"{name}." for name in (*model._SPECIES_FIELDS, "mass"))


def _load_config(path) -> dict:
    """The key/value pairs of a config file; a key no setting reads is an error."""
    if path is None:
        return {}
    cfg = model.read_config(path)
    unknown = [key for key in cfg if key not in _CONFIG_KEYS
               and not (key.startswith(_OVERRIDES) and not key.endswith("."))]
    if unknown:
        raise ValueError(f"{path}: no setting reads config key(s) {', '.join(unknown)}")
    return cfg


def _resolve_norm(args, cfg) -> str:
    norm = args.norm or cfg.get("norm", "frobenius")
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
    return norm


def _scf_config(cfg: Mapping, norm: str) -> scf.ScfConfig:
    """ScfConfig from the ``scf.<field>`` keys; absent keys keep defaults."""
    base = scf.ScfConfig(norm=norm)
    keys = [f.name for f in fields(base) if f"scf.{f.name}" in cfg and f.name != "norm"]
    typed = {}
    for k in keys:
        value = cfg[f"scf.{k}"]
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"scf.{k} must be finite")
        typed[k] = type(getattr(base, k))(value)
    return replace(base, **typed)


def _settings(args) -> tuple:
    """(config mapping, norm, model params, SCF config) of a run."""
    cfg = _load_config(args.config)
    norm = _resolve_norm(args, cfg)
    return cfg, norm, model.model_params_from_config(cfg), _scf_config(cfg, norm)


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
        (f"scf.{f.name}", getattr(scf_cfg, f.name))
        for f in fields(scf_cfg)
        if f.name != "norm"
    ]
    return entries


def _floats(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated float list, got {text!r}")


# ---------------------------------------------------------------------------
# scf


def _write_solution(out: Path, sol: model.ScfSolution, g) -> None:
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
    scf.write_trace_csv(out / "trace.csv", sol.trace)


def cmd_scf(args) -> int:
    g = model.load_geometry(args.geometry)
    cfg, norm, p, scf_cfg = _settings(args)
    out = _outdir(args)
    _write_resolved_config(
        out, _common_entries(args, norm, p, scf_cfg) + [("geometry", args.geometry)]
    )
    try:
        sol = scf.scf_solve(g, p, scf_cfg)
    except NoConvergence as exc:
        print(f"scf: {exc}", file=sys.stderr)
        if exc.best is not None:
            _write_solution(out, exc.best, g)
        return EXIT_DOMAIN
    _write_solution(out, sol, g)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    g = model.load_geometry(args.geometry)
    cfg, norm, p, scf_cfg = _settings(args)
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


def _kernel_from_args(args):
    if not args.train:
        raise ValueError("kernel predictor needs --train DIR")
    train = surrogate.load_dataset(args.train)
    return surrogate.kernel_fit(
        train, bandwidth=args.bandwidth, k_neighbors=args.k
    ), train


def _check_frames_match(frames, ds, path) -> None:
    """A prediction bundle's frames must be the dataset's geometries."""
    if len(frames.positions) != len(ds):
        raise FileFormatError(
            f"{path}: {len(frames.positions)} frames for {len(ds)} entries"
        )
    if (frames.species, frames.n_electrons) != (ds.species, ds.n_electrons):
        bad = np.ones(len(ds), dtype=bool)
    else:
        bad = np.abs(frames.positions - ds.positions).max(axis=(1, 2)) > 1e-6
    if bad.any():
        i = int(bad.argmax())
        raise FileFormatError(f"{path}: frame {i} is not the geometry of entry {i}")


def cmd_validate(args) -> int:
    ds = surrogate.load_dataset(args.dataset)
    cfg, norm, p, scf_cfg = _settings(args)
    extra = [
        ("validate.dataset", args.dataset),
        ("validate.predictor", args.predictor),
    ]

    # predict(i, g, label) gives the records of entry i, of geometry g and
    # labeled solution label, as one stacked Prediction and their system
    # names.
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
        rows = [(j, k) for j in range(len(sigmas_h)) for k in range(args.repeat)]

        def predict(i, g, label):
            # One stream per row, whatever the evaluation order.
            pred = surrogate.oracle_noise_predict(
                label,
                [sigmas_h[j] for j, _ in rows],
                [sigmas_d[j] for j, _ in rows],
                [substream(args.seed, "oracle-noise", i, j, k) for j, k in rows],
                shared_noise=args.shared_noise,
            )
            return pred, [f"{i:04d}:s{j}:r{k}" for j, k in rows]
    elif args.predictor == "kernel":
        km, train = _kernel_from_args(args)
        extra += [
            ("validate.train", args.train),
            ("validate.bandwidth", km.bandwidth),
            ("validate.k", km.k_neighbors),
        ]

        def predict(i, g, label):
            pred = surrogate.kernel_predict(km, g)
            stack = validator.Prediction(pred.h_pred[None], pred.d_pred[None],
                                         pred.source)
            return stack, [f"{i:04d}"]
    elif args.predictor == "external-file":
        if not args.pred:
            raise ValueError("external-file predictor needs --pred DIR")
        extra.append(("validate.pred", args.pred))
        frames, stacks = surrogate._read_stack(args.pred, "HD")
        _check_frames_match(frames, ds, args.pred)

        def predict(i, g, label):
            pred = validator.Prediction(stacks["H"][i:i + 1], stacks["D"][i:i + 1])
            return pred, [f"{i:04d}"]
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown predictor {args.predictor!r}")

    # One stacked pass per entry, over one context of its geometry.
    tables = []
    for i in range(len(ds)):
        g, label = ds.geometry(i), ds.label(i)
        pred, systems = predict(i, g, label)
        tables.append(validator.full_report(
            pred, label, model.Context(g, p), norm=norm, system=systems,
        ))
    reports = validator.ReportTable.concat(tables)

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
    cfg, norm, p, scf_cfg = _settings(args)
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
    cfg, norm, p, scf_cfg = _settings(args)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The scval parser, built once per process and shared by every call."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, default=0,
                        help="global random seed (default 0)")
    common.add_argument("--norm", choices=_NORMS,
                        help="residual norm (default frobenius)")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored; every command runs "
                             "in one thread")
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
    p_val.add_argument("--pred", help="external prediction bundle directory")
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
