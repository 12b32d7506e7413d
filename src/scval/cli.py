"""Command-line driver.

Subcommands: scf, gen, validate, stats, grad, md.  Exit codes: 0 on
success, 1 for usage or input-parsing problems, 2 for domain failures
(non-convergence, exhausted generation, insufficient data).  Each
command reads the config groups ``_READS`` names for it, and a key of
any other group exits 1.  Every run writes ``resolved_config.txt`` next
to its outputs: the settings it built from those groups and its parsed
flags, so any result can be reproduced from the artifact directory alone.
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
from .rng import substreams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
_RECORDS_PER_BLOCK = 256  # the most records cmd_validate scores in one pass

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for domain
    failures, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Settings.  The config groups each command reads: ``model`` holds the
# ModelParams fields and the ``.X`` species overrides of hubbard_u, eps0
# and q_ref; ``scf`` the ``scf.<ScfConfig field>`` keys; ``mass`` the
# ``mass`` and ``mass.X`` keys; ``norm`` the residual norm.

_READS = {
    "scf": ("model", "scf"),
    "gen": ("model", "scf"),
    "validate": ("model", "norm"),
    "stats": (),
    "grad": ("model", "norm"),
    "md": ("model", "scf", "mass", "norm"),
}
_SCF_KEYS = frozenset(f"scf.{f.name}" for f in fields(scf.ScfConfig))
# Parsed flags a record leaves out: those it records as settings, and
# those that say where the run ran rather than what it computed.
_UNRECORDED = frozenset({"command", "func", "seed", "norm", "config", "jobs", "out"})


def _group(key: str):
    """The config group that reads ``key``, or None."""
    if key in _SCF_KEYS:
        return "scf"
    if key == "norm":
        return "norm"
    name, dot, species = key.partition(".")
    if name == "mass" and (species or not dot):
        return "mass"
    if (key in model.ModelParams.__dataclass_fields__
            or (name in model.SPECIES_FIELDS and species)):
        return "model"
    return None


def _scf_config(cfg: Mapping) -> scf.ScfConfig:
    """ScfConfig from the ``scf.<field>`` keys; absent keys keep defaults."""
    base = scf.ScfConfig()
    typed = {}
    for f in fields(base):
        value = cfg.get(f"scf.{f.name}")
        if value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"scf.{f.name} must be finite")
        typed[f.name] = type(getattr(base, f.name))(value)
    return replace(base, **typed)


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


class _Settings:
    """What a command reads of ``--config``, and the record of its run.

    Builds only the groups ``_READS`` gives the command: ``params``,
    ``scf``, ``masses`` (per atom of ``species``) and ``norm``.  A config
    key outside those groups is a ValueError naming it, and so is a
    species override (``eps0.X``, ``mass.X``, ...) whose X is not among
    the run's ``species``; a command that learns its species later
    passes none and calls :meth:`check_species` then.
    """

    def __init__(self, args, species=None):
        self.args = args
        groups = _READS[args.command]
        cfg = {} if args.config is None else model.read_config(args.config)
        unread = [key for key in cfg if _group(key) not in groups]
        if unread:
            raise ValueError(f"{args.config}: scval {args.command} reads no "
                             f"config key(s) {', '.join(unread)}")
        # The X of each species override; "*" is the fallback, not a species.
        self._overrides = {key: key.partition(".")[2] for key in cfg
                           if _group(key) in ("model", "mass") and "." in key}
        if species is not None:
            self.check_species(species)
        self.items = [("command", args.command), ("seed", args.seed)]
        if "norm" in groups:
            self.norm = matcore.resolve_norm(
                args.norm or cfg.get("norm", "frobenius"))
            self.items.append(("norm", self.norm))
        if "model" in groups:
            self.params = model.model_params_from_config(cfg)
            self.items += _params_items(self.params)
        if "scf" in groups:
            self.scf = _scf_config(cfg)
            self.items += [(f"scf.{f.name}", getattr(self.scf, f.name))
                           for f in fields(self.scf)]
        if "mass" in groups:
            self.masses = model.masses_from_config(cfg, species)
            self.items += sorted({f"mass.{sp}": float(m)
                                  for sp, m in zip(species, self.masses)}.items())

    def check_species(self, species) -> None:
        """A ValueError naming each override of a species not in ``species``."""
        absent = [key for key, sp in self._overrides.items()
                  if sp != "*" and sp not in species]
        if absent:
            raise ValueError(
                f"{self.args.config}: {', '.join(absent)}: no such species in "
                f"this run (its species: {', '.join(sorted(set(species)))})")

    def write(self, out: Path, **worked) -> None:
        """Write ``resolved_config.txt``: the settings, then the flags.

        A flag is recorded as ``<command>.<flag>`` (the positional
        geometry as ``geometry``), with the value ``worked`` gives for it
        where the run worked one out; a flag without a value is left out.
        """
        flags = {**vars(self.args), **worked}
        items = self.items + [
            (key if key == "geometry" else f"{self.args.command}.{key}", value)
            for key, value in flags.items()
            if key not in _UNRECORDED and value is not None
        ]
        (out / "resolved_config.txt").write_text(model.format_config(items))


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    (out / "summary.txt").write_text(model.format_config([
        ("converged", int(sol.converged)), ("iterations", int(sol.iterations)),
        ("n_atoms", g.n_atoms), ("n_electrons", g.n_electrons),
        ("e_total", float(sol.e_total)), ("gap", float(sol.gap)),
        ("strict_diis", float(sol.strict_diis)),
    ]))
    scf.write_trace_csv(out / "trace.csv", sol.trace)


def cmd_scf(args) -> int:
    g = model.load_geometry(args.geometry)
    run = _Settings(args, g.species)
    out = _outdir(args)
    run.write(out)
    try:
        sol = scf.scf_solve(g, run.params, run.scf)
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
    run = _Settings(args, g.species)
    ds = surrogate.generate_dataset(
        g,
        run.params,
        args.n,
        mode=args.mode,
        amplitude=args.amplitude,
        temperature=args.temperature,
        seed=args.seed,
        scf_cfg=run.scf,
        md_dt=args.md_dt,
        md_stride=args.md_stride,
        md_burnin=args.md_burnin,
        md_tau=args.md_tau,
    )
    out = _outdir(args)
    surrogate.save_dataset(ds, out)
    # Each mode records only the flags it reads.
    unread = (("temperature", "md_dt", "md_stride", "md_burnin", "md_tau")
              if args.mode == "random_perturb" else ("amplitude",))
    run.write(out, **dict.fromkeys(unread))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _train_set(args, loaded=None) -> surrogate.Dataset:
    """The training set of ``--train``; ``loaded`` is a (directory,
    dataset) pair already read, reused if ``--train`` is it."""
    if not args.train:
        raise ValueError("kernel predictor needs --train DIR")
    if loaded and Path(args.train).resolve() == Path(loaded[0]).resolve():
        return loaded[1]
    return surrogate.load_dataset(args.train)


def cmd_validate(args) -> int:
    run = _Settings(args)
    ds = surrogate.load_dataset(args.dataset)
    run.check_species(ds.species)
    # Each predictor records only the flags it reads.
    worked = dict.fromkeys(("sigma", "sigma_d", "repeat", "shared_noise",
                            "train", "bandwidth", "k", "pred"))

    # predict(entries, label, block_g) gives the records of the entries of a
    # block (a range) as one stacked Prediction, made in one call over the
    # whole block, and their system names; ``label`` holds each record's
    # labeled solution and ``block_g`` the block's checked geometry stack,
    # one frame per entry.  An entry has ``per_entry`` records.
    if args.predictor == "oracle-noise":
        sigmas_h = _floats(args.sigma)
        sigmas_d = _floats(args.sigma_d) if args.sigma_d else sigmas_h
        if len(sigmas_d) != len(sigmas_h):
            raise ValueError("--sigma and --sigma-d must have equal lengths")
        worked.update(sigma=args.sigma, sigma_d=args.sigma_d or args.sigma,
                      repeat=args.repeat, shared_noise=args.shared_noise)
        rows = [(j, k) for j in range(len(sigmas_h)) for k in range(args.repeat)]
        if not rows:
            raise ValueError("--sigma and --repeat give no records per entry")
        per_entry = len(rows)

        def predict(entries, label, block_g):
            keys = [(i, j, k) for i in entries for j, k in rows]
            # One stream per record, whatever the evaluation order; the
            # block's streams are seeded together.
            pred = surrogate.oracle_noise_predict(
                label,
                [sigmas_h[j] for _, j, _ in keys],
                [sigmas_d[j] for _, j, _ in keys],
                substreams(args.seed, ("oracle-noise",), keys),
                shared_noise=args.shared_noise,
            )
            return pred, [f"{i:04d}:s{j}:r{k}" for i, j, k in keys]
    elif args.predictor == "kernel":
        km = surrogate.kernel_fit(_train_set(args, (args.dataset, ds)),
                                  bandwidth=args.bandwidth, k_neighbors=args.k)
        worked.update(train=args.train, bandwidth=km.bandwidth, k=km.k_neighbors)
        per_entry = 1

        def predict(entries, label, block_g):
            pred = surrogate.kernel_predict(km, block_g)
            return pred, [f"{i:04d}" for i in entries]
    elif args.predictor == "external-file":
        if not args.pred:
            raise ValueError("external-file predictor needs --pred DIR")
        h_pred, d_pred = surrogate.load_prediction(args.pred, ds)
        worked["pred"] = args.pred
        per_entry = 1

        def predict(entries, label, block_g):
            block = slice(entries.start, entries.stop)
            pred = validator.Prediction(h_pred[block], d_pred[block])
            return pred, [f"{i:04d}" for i in entries]
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown predictor {args.predictor!r}")

    # Blocks of whole entries, at most _RECORDS_PER_BLOCK records each.  A
    # block's geometry terms are built once per entry, in one Context, and
    # indexed out to its records; its records are scored in one pass.
    size = max(1, _RECORDS_PER_BLOCK // per_entry)
    tables = []
    for start in range(0, len(ds), size):
        block = slice(start, start + size)
        entries = range(len(ds))[block]
        ctx = model.Context(ds.geometry(block), run.params)
        owner = np.repeat(np.arange(len(entries)), per_entry)  # record -> block entry
        label = ds.label(start + owner)
        pred, systems = predict(entries, label, ctx.g)
        tables.append(validator.full_report(
            pred, label, ctx.take(owner), norm=run.norm, system=systems,
        ))
    reports = validator.ReportTable.concat(tables)

    out = _outdir(args)
    validator.write_reports_csv(out / "reports.csv", reports)
    run.write(out, **worked)
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    run = _Settings(args)
    reports = validator.read_reports_csv(args.reports)
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
    run.write(out, targets=",".join(targets))
    return EXIT_OK


# ---------------------------------------------------------------------------
# grad


def cmd_grad(args) -> int:
    g = model.load_geometry(args.geometry)
    run = _Settings(args, g.species)
    km = surrogate.kernel_fit(_train_set(args), bandwidth=args.bandwidth,
                              k_neighbors=args.k)
    grad = validator.self_diis_position_gradient(
        g, run.params, functools.partial(surrogate.kernel_predict, km),
        step=args.step, norm=run.norm,
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
    run.write(out, bandwidth=km.bandwidth, k=km.k_neighbors)
    print(f"gradient norm {float(np.linalg.norm(grad)):.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# md


def cmd_md(args) -> int:
    g = model.load_geometry(args.geometry)
    run = _Settings(args, g.species)

    predictor = None
    threshold = args.threshold
    # Each mode records only the flags it reads.
    worked = dict.fromkeys(("train", "bandwidth", "k", "threshold",
                            "calibrate_percentile"))
    if args.mode in ("surrogate_only", "predictor_corrector"):
        train = _train_set(args)
        if args.mode == "surrogate_only" or threshold is not None:
            km = surrogate.kernel_fit(train, bandwidth=args.bandwidth,
                                      k_neighbors=args.k)
        elif args.calibrate_percentile is None:
            raise ValueError(
                "predictor_corrector needs --threshold or --calibrate-percentile"
            )
        else:
            # The leave-one-out pass fits the kernel the run then uses.
            loo = surrogate.kernel_loo(train, bandwidth=args.bandwidth,
                                       k_neighbors=args.k, norm=run.norm)
            km = loo["model"]
            threshold = float(np.percentile(loo["self_diis"], args.calibrate_percentile))
        predictor = functools.partial(surrogate.kernel_predict, km)
        worked.update(train=args.train, bandwidth=km.bandwidth, k=km.k_neighbors)
    if args.mode == "predictor_corrector":
        worked.update(threshold=threshold,
                      calibrate_percentile=args.calibrate_percentile)

    md_cfg = mdsim.MdConfig(
        n_steps=args.steps,
        t_target=args.t_target,
        dt=args.dt,
        tau=args.tau,
        threshold=threshold,
        mode=args.mode,
        seed=args.seed,
        norm=run.norm,
    )
    result = mdsim.run_md(g, run.params, md_cfg, predictor=predictor,
                          masses=run.masses, scf_cfg=run.scf)
    out = _outdir(args)
    mdsim.write_trajectory_xyz(out / "trajectory.xyz", result, g, args.dt)
    mdsim.write_steps_csv(out / "steps.csv", result)
    temps = result.temperatures
    half = temps[len(temps) // 2:] if len(temps) else np.array([float("nan")])
    (out / "summary.txt").write_text(model.format_config([
        ("frames", len(result.frames)), ("diverged", int(result.diverged)),
        ("aborted", result.aborted or "none"),
        ("mean_t_last_half", float(half.mean())),
    ]))
    run.write(out, **worked)
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
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored; every command runs "
                             "in one thread")
    common.add_argument("--out", default=".",
                        help="output directory (default current)")

    # The commands that report a residual.
    norm_flag = _Parser(add_help=False)
    norm_flag.add_argument("--norm", choices=matcore.NORMS,
                           help="residual norm (default frobenius)")

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

    p_val = sub.add_parser("validate", parents=[common, norm_flag, kernel_flags],
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

    p_grad = sub.add_parser("grad", parents=[common, norm_flag, kernel_flags],
                            help="self-consistency gradient of a predictor")
    p_grad.add_argument("geometry")
    p_grad.add_argument("--step", type=float, default=1e-4,
                        help="central-difference step in A")
    p_grad.set_defaults(func=cmd_grad)

    p_md = sub.add_parser("md", parents=[common, norm_flag, kernel_flags],
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
    gate = p_md.add_mutually_exclusive_group()
    gate.add_argument("--threshold", type=float,
                      help="self-consistency gate (predictor_corrector)")
    gate.add_argument("--calibrate-percentile", type=float,
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
