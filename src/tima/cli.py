"""Command-line entry point: generate data, pretrain, finetune, evaluate,
sweep the margin grid, and run the seeded tima-vs-tecoa trend.

Every pipeline is fully reproducible from (config file, seed): re-running
writes byte-identical reports, CSVs, and heatmaps under the --out directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import harness, model as model_mod
from .config import RunConfig, load_config, parse_config
from .errors import InvalidVariant, IoFailure, TimaError
from .files import make_dir


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else parse_config("")
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _load_dataset(path: Path) -> data_mod.Dataset:
    if not path.exists():
        raise IoFailure(f"missing dataset {path}; run `tima gen-data` first")
    return data_mod.load_dataset(path)


def _load_model(path: Path) -> model_mod.DualEncoder:
    if not path.exists():
        raise IoFailure(f"missing checkpoint {path}")
    return model_mod.load_model(path)


def cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    train, test = data_mod.generate_synthetic(cfg.synthetic_spec())
    out = make_dir(args.out)
    data_mod.save_dataset(train, out / "train.timd")
    data_mod.save_dataset(test, out / "test.timd")
    print(f"wrote {out / 'train.timd'} ({train.num_samples} samples), "
          f"{out / 'test.timd'} ({test.num_samples})")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out)
    train = _load_dataset(out / "train.timd")
    encoder = model_mod.init_model(cfg.encoder_config(), tau=cfg["tau"])
    encoder, trace = harness.pretrain_clean(encoder, train, cfg.pretrain_config())
    model_mod.save_model(encoder, out / "pretrained.timm")
    print(f"pretrained {len(trace)} epochs, final loss {trace[-1]:.4f}; "
          f"saved {out / 'pretrained.timm'}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _resolve_config(args)
    variant = args.variant or cfg["variant"]
    recipe = cfg.finetune_config(variant)  # an unknown variant fails before any file is read
    out = Path(args.out)
    train = _load_dataset(out / "train.timd")
    student = _load_model(out / "pretrained.timm")
    teacher = model_mod.snapshot_teacher(student)
    student, trace = harness.finetune(student, teacher, train, recipe)
    ckpt = out / f"finetuned_{variant}.timm"
    model_mod.save_model(student, ckpt)
    print(f"finetuned variant={variant} for {len(trace)} epochs, "
          f"final loss {trace[-1]:.4f}; saved {ckpt}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    variant = args.variant or cfg["variant"]
    cfg.finetune_config(variant)  # an unknown variant fails first, even with --model
    out = Path(args.out)
    student = _load_model(Path(args.model) if args.model else out / f"finetuned_{variant}.timm")
    teacher = model_mod.snapshot_teacher(_load_model(out / "pretrained.timm"))
    test = _load_dataset(Path(args.data) if args.data else out / "test.timd")
    report = harness.evaluate(student, teacher, test, cfg.eval_eps(),
                              attack=cfg.eval_attack(), matrices_dir=out / "matrices",
                              config_echo=cfg.echo(), seed=cfg["seed"])
    harness.write_report(report, out / "report.json")
    robust = ", ".join(f"eps={k}: {v:.3f}" for k, v in report.robust_accuracy.items())
    print(f"clean accuracy {report.clean_accuracy:.3f}; robust {robust}")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    if cfg["variant"] not in harness.MARGIN_VARIANTS:
        raise InvalidVariant(f"sweep traces the margin (m, eta), which variant {cfg['variant']!r} "
                             f"does not train; use one of {', '.join(harness.MARGIN_VARIANTS)}")
    out = Path(args.out)
    train = _load_dataset(out / "train.timd")
    test = _load_dataset(out / "test.timd")
    pretrained = _load_model(out / "pretrained.timm")
    teacher = model_mod.snapshot_teacher(pretrained)
    base = cfg.finetune_config()
    configs = {}
    for m in cfg["sweep_m"]:
        for eta in cfg["sweep_eta"]:
            weights = dataclasses.replace(base.loss_weights, m=m, eta=eta)
            configs[m, eta] = dataclasses.replace(base, loss_weights=weights)
    eps_list = cfg["sweep_eps"]

    def cell(key):
        m, eta = key
        student = harness.finetune(pretrained.clone(), teacher, train, configs[key])[0]
        return harness.evaluate(student, teacher, test, eps_list, attack=cfg.eval_attack(),
                                config_echo=dict(cfg.echo(), m=repr(m), eta=repr(eta)),
                                seed=cfg["seed"])

    count = 0
    for (m, eta), report in zip(configs, harness.run_cells(cell, configs)):
        for eps_text, _ in eps_list:
            point = make_dir(out / "sweep" / f"m{m}_eta{eta}_eps{harness.eps_tag(eps_text)}")
            robust = report.robust_accuracy[eps_text]
            harness.write_report(dataclasses.replace(report, robust_accuracy={eps_text: robust}),
                                 point / "report.json")
            count += 1
            print(f"sweep point m={m} eta={eta} eps={eps_text}: "
                  f"clean {report.clean_accuracy:.3f}, robust {robust:.3f}")
    print(f"wrote {count} sweep reports under {out / 'sweep'}")
    return 0


def _trend_row(variant: str, reports) -> str:
    """Clean and per-eps robust accuracy of ``variant``, averaged over reports."""
    row = f"{variant:9s} clean {np.mean([r.clean_accuracy for r in reports]):.3f}"
    for eps_text in reports[0].robust_accuracy:
        row += f"  rob@{eps_text} {np.mean([r.robust_accuracy[eps_text] for r in reports]):.3f}"
    return row


def cmd_trend(args) -> int:
    base = _resolve_config(args)
    seeds = harness.TREND_SEEDS if args.seed is None else (args.seed,)
    out = make_dir(Path(args.out) / "trend")

    def cell(seed):
        cfg = base.with_seed(seed)
        grid = harness.run_grid(cfg, harness.TREND_VARIANTS)
        head = (f"seed {seed}: teacher clean {harness.eval_clean(grid.pretrained, grid.test):.3f} "
                f"min text distance {harness.interclass_stats(grid.teacher.t_hat)[0]:.3f}")
        return head, {variant: harness.evaluate(student, grid.teacher, grid.test, cfg.eval_eps(),
                                                attack=cfg.eval_attack(),
                                                config_echo=dict(cfg.echo(), variant=variant),
                                                seed=seed)
                      for variant, student in grid.students.items()}

    reports = {v: [] for v in harness.TREND_VARIANTS}
    for seed, (head, cell_reports) in zip(seeds, harness.run_cells(cell, seeds)):
        print(head)
        for variant, report in cell_reports.items():
            point = make_dir(out / f"seed{seed}_{variant}")
            harness.write_report(report, point / "report.json")
            reports[variant].append(report)
            print(f"  {_trend_row(variant, [report])}")
    print(f"\n=== means over seeds {list(seeds)}")
    for variant, rows in reports.items():
        print(_trend_row(variant, rows))
    for eps_text, _ in base.eval_eps():
        gap = (np.mean([r.robust_accuracy[eps_text] for r in reports["tima"]])
               - np.mean([r.robust_accuracy[eps_text] for r in reports["tecoa"]]))
        print(f"tima - tecoa robust gap @ {eps_text}: {100 * gap:+.1f}pp")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tima",
        description="Adversarial fine-tuning lab for a toy image/text dual encoder.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    for name, fn in (("gen-data", cmd_gen_data), ("pretrain", cmd_pretrain),
                     ("finetune", cmd_finetune), ("eval", cmd_eval), ("sweep", cmd_sweep),
                     ("trend", cmd_trend)):
        p = sub.add_parser(name)
        common(p)
        if name in ("finetune", "eval"):
            p.add_argument("--variant", default=None,
                           help="override the config variant for this run")
        if name == "eval":
            p.add_argument("--model", default=None, help="checkpoint to evaluate")
            p.add_argument("--data", default=None, help="dataset file to evaluate on")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (TimaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a configured size no array can have
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # run_cells has killed and reaped its children
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
