"""Command-line interface: the whole pipeline as subcommands.

Exit codes: 0 success, 1 usage or configuration error, 2 data or runtime
error. ``main`` resolves the configuration once for every subcommand. The
subcommands that read it print it before they do their work, so a run can be
reproduced exactly; ``predict`` prints the checkpoint's layout instead.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

from . import adapt, blackbox, config, data, metrics, model
from .errors import BimemError, ConfigError, DataError, InvalidArgumentError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _read_nonempty_dataset(path, n_categories: int) -> data.LabeledDataset:
    """``read_dataset``, with a header-only file as a data error: no command can run on it."""
    dataset = data.read_dataset(path, n_categories=n_categories)
    if dataset.n_samples == 0:
        raise DataError(f"{path} has no data rows")
    return dataset


def cmd_gen_data(args, resolved: dict) -> int:
    source, target = data.gen_shifted_gaussians(
        n_categories=resolved["n_categories"],
        feature_dim=resolved["dim"],
        n_per_class=resolved["n_per_class"],
        class_separation=resolved["class_separation"],
        target_shift=resolved["target_shift"],
        target_rotation_deg=resolved["target_rotation_deg"],
        noise_sigma=resolved["noise_sigma"],
        seed=resolved["seed"],
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data.write_dataset(source, out_dir / "source.csv")
    data.write_dataset(target, out_dir / "target.csv")
    print(f"wrote {out_dir / 'source.csv'} ({source.n_samples} rows)")
    print(f"wrote {out_dir / 'target.csv'} ({target.n_samples} rows)")
    return 0


def cmd_train_source(args, resolved: dict) -> int:
    source = _read_nonempty_dataset(args.source, resolved["n_categories"])
    params = blackbox.train_source(
        source,
        epochs=resolved["source_epochs"],
        lr=resolved["source_lr"],
        seed=resolved["seed"],
        batch_size=resolved["source_batch_size"],
        hidden_dim=resolved["hidden_dim"],
        n_categories=resolved["n_categories"],
    )
    model.save_params(params, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args, _resolved: dict) -> int:
    """The checkpoint, not the config, gives the model's layout."""
    params = model.load_params(args.model)
    print(f"checkpoint layout: {json.dumps(asdict(params.layout))}")
    target = _read_nonempty_dataset(args.target, params.layout.n_categories)
    preds = blackbox.export_predictions(params, target, args.out, hard_only=args.hard_only)
    print(f"wrote {args.out} ({preds.ids.shape[0]} records)")
    return 0


def _read_adaptation_inputs(args, n_categories: int):
    """Target set and black-box predictions, both checked against ``n_categories``."""
    target = _read_nonempty_dataset(args.target, n_categories)
    preds = blackbox.read_predictions(args.preds)
    if preds.n_categories != n_categories:
        raise DataError(
            f"{args.preds} has {preds.n_categories} probability columns, "
            f"config n_categories is {n_categories}"
        )
    return target, preds


def cmd_adapt(args, resolved: dict) -> int:
    cfg = config.adapt_config(resolved)
    target, preds = _read_adaptation_inputs(args, resolved["n_categories"])
    _, trace = adapt.run(target, preds, cfg)
    trace.to_csv(args.out)
    final = trace.rows[-1]
    print(
        f"wrote {args.out}: final acc_all={final.acc_all:.4f} "
        f"pl_acc_denoised={final.pl_acc_denoised:.4f} "
        f"pl_acc_blackbox={final.pl_acc_blackbox:.4f}"
    )
    return 0


def cmd_ablate(args, resolved: dict) -> int:
    cells = args.seeds.split(",")
    try:
        # A seed is written like an integer cell of a CSV file.
        if not data.plain_cells(cells):
            raise ValueError
        seeds = [int(cell) for cell in cells]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be non-negative, got {args.seeds!r}")
    base_cfg = config.adapt_config(resolved)
    target, preds = _read_adaptation_inputs(args, resolved["n_categories"])
    rows = adapt.run_ablation_suite(target, preds, base_cfg, seeds)
    adapt.write_ablation_table(rows, args.out)
    for row in rows:
        print(
            f"row {row['row']}: mean_final_acc={row['mean_final_acc']:.4f} "
            f"(+/- {row['std_final_acc']:.4f}) [{row['flows']}]"
        )
    print(f"wrote {args.out}")
    return 0


_TRACE_NAME = re.compile(r"^(?P<method>.+?)_seed(?P<seed>\d+)")


def trace_identity(path: str | Path) -> tuple[str, int | str]:
    """(method, seed) parsed from '<method>_seed<k>*.csv'; stem fallback."""
    stem = Path(path).stem
    match = _TRACE_NAME.match(stem)
    if match:
        return match.group("method"), int(match.group("seed"))
    return stem, ""


def cmd_report(args, _resolved: dict) -> int:
    entries = []
    for path in args.traces:
        method, seed = trace_identity(path)
        entries.append((method, seed, adapt.RunTrace.from_csv(path)))
    rows = metrics.summary_rows(entries)
    metrics.write_summary(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bimem",
        description="Memory-calibrated self-training lab for black-box domain shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every subcommand takes the config; ``main`` resolves it once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")

    def command(name: str, func, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=func)
        return p

    p = command("gen-data", cmd_gen_data, "generate the synthetic source/target benchmark")
    p.add_argument("--out-dir", required=True, help="directory for source.csv / target.csv")

    p = command("train-source", cmd_train_source, "train the source model on source.csv")
    p.add_argument("source", help="source dataset CSV")
    p.add_argument("--out", required=True, help="model checkpoint path (JSON)")

    p = command("predict", cmd_predict, "export black-box predictions for target.csv")
    p.add_argument("model", help="source model checkpoint")
    p.add_argument("target", help="target dataset CSV")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.add_argument(
        "--hard-only",
        action="store_true",
        help="export smoothed one-hot probabilities instead of soft predictions",
    )

    p = command("adapt", cmd_adapt, "run adaptation on target.csv + preds.csv")
    p.add_argument("target", help="target dataset CSV")
    p.add_argument("preds", help="black-box predictions CSV")
    p.add_argument("--method", choices=adapt.METHODS, default=None, help="override config method")
    p.add_argument("--out", required=True, help="trace CSV path")

    p = command("ablate", cmd_ablate, "run the seven-row flow ablation grid")
    p.set_defaults(method="bimem")
    p.add_argument("target")
    p.add_argument("preds")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--out", required=True, help="ablation table CSV path")

    p = command("report", cmd_report, "aggregate trace CSVs into a summary CSV")
    p.add_argument(
        "traces",
        nargs="+",
        help="trace CSVs; name them <method>_seed<k>.csv to label summary rows",
    )
    p.add_argument("--out", required=True, help="summary CSV path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        # ``adapt --method`` or ``ablate``'s bimem, the one override.
        method = getattr(args, "method", None)
        resolved = config.resolve(args.config, None if method is None else {"method": method})
        if args.func not in (cmd_predict, cmd_report):  # the two that read no config
            print("resolved config:")
            print(json.dumps(resolved, indent=2, sort_keys=True))
        return args.func(args, resolved)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, BimemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
