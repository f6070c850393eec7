"""Command-line entry point.

Subcommands: ``run`` (seeded experiment from a JSON config), ``train-ml2o``
(meta-train the learned optimizer), ``compare`` (aggregate a metric over run
directories), ``front`` (population run that also emits per-seed Pareto front
CSVs) and ``check`` (the full acceptance/invariant suite). Exit codes:
0 success, 1 config error, 2 runtime failure, 3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import COMPARE_METRICS, ConfigError, compare_cmd, run_experiment, train_ml2o_cmd


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"--config: cannot read {path!r}: {exc.strerror}"]) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError([f"--config: {path!r} is not JSON: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise ConfigError([f"--config: {path!r} holds a JSON {type(cfg).__name__}, not an object"])
    return cfg


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if getattr(args, "seeds", None):
        try:
            cfg["seeds"] = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            raise ConfigError([f"--seeds: {args.seeds!r} is not a comma-separated list of "
                               "integers"]) from None
    return cfg


def _criteria(only: str, numbers: list[int]) -> list[int]:
    """The criterion numbers of the ``--only`` value, each one of ``numbers``."""
    try:
        picked = [int(s) for s in only.split(",")]
    except ValueError:
        picked = None
    if picked is None or not set(picked) <= set(numbers):
        raise ConfigError([f"--only: {only!r} is not a comma-separated list of criterion "
                           f"numbers; the criteria are {', '.join(map(str, numbers))}"])
    return picked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="moograd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeds=True):
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="override the config's output directory")
        if seeds:
            p.add_argument("--seeds", default=None, help="comma-separated seed override")

    add_common(sub.add_parser("run", help="execute a seeded experiment"))
    add_common(sub.add_parser("front", help="population run emitting Pareto front CSVs"))

    p_train = sub.add_parser("train-ml2o", help="meta-train the learned optimizer")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="aggregate a metric over run directories")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--metric", required=True, choices=COMPARE_METRICS)
    p_cmp.add_argument("--out", default=None, help="report CSV path")

    p_check = sub.add_parser("check", help="run the acceptance and invariant suites")
    p_check.add_argument("--out", default=None, help="work directory for check artifacts")
    p_check.add_argument(
        "--only", default=None, help="comma-separated acceptance criterion numbers"
    )

    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "front"):
            cfg = _apply_overrides(_load_config(args.config), args)
            if args.command == "front" and not cfg.get("population"):
                raise ConfigError(["population: required for the front subcommand"])
            results = run_experiment(cfg, out_dir=args.out, write_front=args.command == "front")
            print(f"wrote {len(results)} run(s) to {args.out or cfg['outputs']}")
        elif args.command == "train-ml2o":
            cfg = _load_config(args.config)
            train_ml2o_cmd(cfg, out_dir=args.out)
            print(f"checkpoint written to {args.out or cfg['outputs']}")
        elif args.command == "compare":
            report = compare_cmd(args.run_dirs, args.metric, out_path=args.out)
            for row in report:
                print(
                    f"{row['optimizer']:>10}  {row['metric']}: "
                    f"mean={row['mean']:.6g} std={row['std']:.6g} (n={row['n_seeds']})"
                )
        elif args.command == "check":
            from .checks import CHECKS, run_checks

            only = None
            if args.only:
                only = _criteria(args.only, [number for number, _, _ in CHECKS])
            ok = run_checks(work_dir=args.out, only=only)
            return 0 if ok else 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
