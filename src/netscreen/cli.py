"""Command line interface: simulate, screen, classify, experiment.

Exit codes: 0 success, 2 usage error, 3 data validation error, 4 numerical
degeneracy. Every command is deterministic given its inputs, the seed, and
the thread count; threads never change numbers, only wall time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .classify import KINDS, ClassifierSpec, evaluate, fit
from .dataset import STREAMS, FeatureSet, seed_entropy, stream
from .errors import DegeneracyError, ValidationError
from .experiment import experiment, null_calibration
from .io import (experiment_long_csv, experiment_table, json_text,
                 read_dataset, read_json, write_dataset, write_json)
from .screening import hard_cutoff, interaction_expand, pc_sis, plr_sis
from .simulate import SimulationConfig, example_config, generate


def _parse_cutoff(text: str):
    """'maxratio' | 'hard[:d]' | 'pvalue[:alpha]' -> (name, d, alpha).

    d is a count or "n_minus_1"; a malformed argument is a ValidationError.
    """
    if text == "maxratio":
        return "max_ratio", None, 0.05
    name, _, arg = text.partition(":")
    try:
        if name == "hard":
            d = arg if arg == "n_minus_1" else (int(arg) if arg else None)
            return "hard", d, 0.05
        if name == "pvalue":
            return "pvalue", None, (float(arg) if arg else 0.05)
    except ValueError:
        pass
    raise ValidationError(
        f"unknown cutoff {text!r}; use maxratio, hard:<d>, hard:n_minus_1, "
        "or pvalue:<alpha>")


def _parse_features(text: str) -> FeatureSet:
    keys = [part.strip() for part in text.split(",") if part.strip()]
    return FeatureSet.from_keys(keys)


def _emit(payload: dict, out) -> None:
    """The JSON of payload to the file out, else to stdout."""
    if out:
        write_json(out, payload)
        print(out)
    else:
        sys.stdout.write(json_text(payload))


def cmd_simulate(args) -> int:
    if args.config:
        config = SimulationConfig.from_dict(read_json(args.config))
        if args.n is not None or args.p is not None:
            raise ValidationError("--config carries n and p; drop the flags")
    else:
        if args.example is None:
            raise ValidationError("pass --example or --config")
        config = example_config(args.example, n=args.n, p=args.p,
                                model=args.model, seed=args.seed)
    dataset, extras = generate(config, seed=args.seed)
    paths = write_dataset(args.out, dataset, extras,
                          generator=config.to_dict())
    for name in sorted(paths):
        print(paths[name])
    return 0


def cmd_screen(args) -> int:
    cutoff, d, alpha = _parse_cutoff(args.cutoff)
    dataset, info = read_dataset(args.nodes, args.edges, args.metadata,
                                 bins=args.bins, bin_scheme=args.bin_scheme)
    search_cap = None
    if args.search_cap == "auto":
        search_cap = 2 * hard_cutoff(dataset.n)
    elif args.search_cap is not None:
        try:
            search_cap = int(args.search_cap)
        except ValueError as err:
            raise ValidationError(
                f"--search-cap takes an integer or 'auto', not "
                f"{args.search_cap!r}") from err
    common = dict(cutoff=cutoff, d=d, alpha=alpha, seed=args.seed,
                  interactions=args.interactions, top_m=args.top_m,
                  search_cap=search_cap)
    if args.method == "plr":
        result = plr_sis(dataset, perms=args.perms, **common)
    else:
        if args.perms:
            raise ValidationError("--perms applies to --method plr only")
        result = pc_sis(dataset, **common)
    payload = result.to_dict()
    if info["binned_columns"]:
        payload["binned_columns"] = info["binned_columns"]
    _emit(payload, args.out)
    return 0


def cmd_classify(args) -> int:
    dataset, _ = read_dataset(args.nodes, args.edges, args.metadata,
                              bins=args.bins, bin_scheme=args.bin_scheme)
    if args.screen and (args.s_y or args.s_a):
        raise ValidationError("pass --screen or explicit sets, not both")
    if args.screen:
        screened = read_json(args.screen)
        if not isinstance(screened, dict) or "selected" not in screened:
            raise ValidationError(
                f"{args.screen}: not a screen result; it has no 'selected'")
        s_y = FeatureSet.from_keys(screened["selected"])
        s_a = s_y
    elif args.s_y is not None:
        s_y = _parse_features(args.s_y)
        s_a = _parse_features(args.s_a) if args.s_a else FeatureSet()
    else:
        raise ValidationError("pass --screen result or --s-y keys")
    spec = ClassifierSpec(args.kind, s_y=s_y, s_a=s_a,
                          smoothing=args.smoothing)
    dataset = interaction_expand(dataset, sorted(set(s_y.pairs)
                                                 | set(s_a.pairs)))

    train_mask = targets = None
    n_train = dataset.n
    if args.split is not None:
        if not 0.0 < args.split < 1.0:
            raise ValidationError("--split takes the training fraction in (0,1)")
        train_mask = (stream(args.seed, STREAMS["split"]).random(dataset.n)
                      < args.split)
        if not train_mask.any() or train_mask.all():
            raise ValidationError("split left the train or test side empty")
        targets = np.flatnonzero(~train_mask) + 1
        n_train = int(train_mask.sum())
    clf = fit(spec, dataset, train_mask)
    acc, auc = evaluate(clf, dataset, targets=targets, auc=args.auc)
    payload = {
        "kind": args.kind, "s_y": list(s_y.keys()), "s_a": list(s_a.keys()),
        "smoothing": args.smoothing, "acc": acc, "auc": auc,
        "transductive": args.split is None, "split": args.split,
        "n_train": n_train,
        "n_eval": int(dataset.n - n_train) if args.split is not None
        else dataset.n,
        "seed": args.seed,
    }
    _emit(payload, args.out)
    return 0


def cmd_experiment(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.example == "null":
        res = null_calibration(n=args.n, reps=args.reps, seed=args.seed)
        write_json(out / "null.json", res)
        lines = [
            f"null calibration  n={res['n']} reps={res['reps']} seed={res['seed']}",
            f"mean doubled node part    {res['mean_self']:8.3f}"
            f"   reference {res['df_self']}"
            f"   ratio {res['ratio_self']:.3f}",
            f"mean doubled network part {res['mean_network']:8.3f}"
            f"   reference {res['df_network']}"
            f"   ratio {res['ratio_network']:.3f}",
        ]
        (out / "table.txt").write_text("\n".join(lines) + "\n",
                                       encoding="utf-8")
        print(out / "null.json")
        return 0

    cutoff, d, alpha = _parse_cutoff(args.cutoff)
    classifiers = ()
    if args.classifiers != "none":
        classifiers = tuple(k.strip() for k in args.classifiers.split(","))
    report = experiment(
        args.example, n=args.n, p=args.p, m_reps=args.reps, seed=args.seed,
        model=args.model, interactions=args.interactions, cutoff=cutoff,
        cutoff_d=d, cutoff_alpha=alpha, classify_true=classifiers,
        threads=args.threads)
    write_json(out / "report.json", report.to_dict())
    write_json(out / "report.timing.json", report.timing)
    (out / "table.txt").write_text(experiment_table(report), encoding="utf-8")
    (out / "long.csv").write_text(experiment_long_csv(report),
                                  encoding="utf-8")
    sys.stdout.write(experiment_table(report))
    print(out / "report.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netscreen",
        description="Feature screening and classification on network data")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset")
    sim.add_argument("--example", help="example id 1..9")
    sim.add_argument("--config", help="SimulationConfig JSON file")
    sim.add_argument("--model", choices=["nnb", "nlr"])
    sim.add_argument("--n", type=int)
    sim.add_argument("--p", type=int)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    scr = sub.add_parser("screen", help="rank features and cut the list")
    cls = sub.add_parser("classify", help="fit and evaluate a classifier")
    for cmd, func in ((scr, cmd_screen), (cls, cmd_classify)):
        cmd.add_argument("--nodes", required=True)
        cmd.add_argument("--edges", required=True)
        cmd.add_argument("--metadata")
        cmd.add_argument("--bins", type=int,
                         help="bin count for continuous columns")
        cmd.add_argument("--bin-scheme", dest="bin_scheme",
                         default="normal_quantile",
                         choices=["normal_quantile", "empirical_quantile"])
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out")
        cmd.set_defaults(func=func)

    scr.add_argument("--method", choices=["plr", "pc"], default="plr")
    scr.add_argument("--cutoff", default="maxratio",
                     help="maxratio | hard:<d> | hard:n_minus_1 | "
                     "pvalue:<alpha>")
    scr.add_argument("--perms", type=int, default=0)
    scr.add_argument("--interactions", choices=["none", "top", "all"],
                     default="none")
    scr.add_argument("--top-m", type=int, dest="top_m")
    scr.add_argument("--search-cap", dest="search_cap",
                     help="max-ratio scan depth, or 'auto'")

    cls.add_argument("--screen", help="screening result JSON; its selected "
                     "set feeds both feature roles")
    cls.add_argument("--s-y", dest="s_y",
                     help="comma-separated keys, e.g. 1,2 or 1,3&4")
    cls.add_argument("--s-a", dest="s_a")
    cls.add_argument("--kind", choices=KINDS, default="type3")
    cls.add_argument("--smoothing", type=float, default=0.5)
    cls.add_argument("--split", type=float,
                     help="training fraction; omit for transductive")
    cls.add_argument("--auc", action="store_true")

    exp = sub.add_parser("experiment", help="replicated end-to-end runs")
    exp.add_argument("--example", required=True,
                     help="example id 1..9, or 'null' for the reference "
                     "distribution check")
    exp.add_argument("--model", choices=["nnb", "nlr"])
    exp.add_argument("--n", type=int)
    exp.add_argument("--p", type=int)
    exp.add_argument("--reps", "-M", type=int, default=100)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--cutoff", default="maxratio")
    exp.add_argument("--interactions",
                     choices=["auto", "none", "top", "all"], default="auto")
    exp.add_argument("--classifiers", default=",".join(KINDS),
                     help="comma-separated kinds, or 'none'")
    exp.add_argument("--threads", type=int, default=1)
    exp.add_argument("--out", required=True, help="output directory")
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        seed_entropy(args.seed)  # every command takes a seed
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except DegeneracyError as err:
        print(f"degenerate data: {err}", file=sys.stderr)
        return 4
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
