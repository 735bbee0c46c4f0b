"""Command-line surface for the train / distill / evaluate / export pipeline.

Exit codes: 0 on success, 2 for configuration or usage errors, 1 for runtime
failures, printed as one line unless ``--debug`` re-raises them with their
traceback. Every command but ``export-tree``, which writes one file or prints
to stdout, writes ``manifest-<command>.json`` into the output directory: the
config snapshot, seeds, version, and input/output hashes are enough to re-run
the stage exactly.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from . import __version__, pipeline
from .dataio import _KEY_TYPES, RunConfig, _parse_value, load_config, write_text
from .ddt import EXPORT_FORMATS, export_rules, load_tree
from .evalkit import BASELINE
from .errors import ConfigError


def _parse_ints(flag: str, raw: str) -> tuple[int, ...]:
    try:
        return _parse_value(tuple[int], raw)
    except ValueError:
        raise ConfigError(f"cannot parse {flag} {raw!r} as comma-separated integers") from None


def _resolve_config(args) -> RunConfig:
    """The ``--config`` file, or the defaults, under each override flag given: a
    flag's ``dest`` is its key, and a list flag's text is parsed like the file's."""
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for key, kind in _KEY_TYPES.items():
        value = getattr(args, key, None)
        if isinstance(value, str) and kind is not str:
            value = _parse_ints(f"--{key}", value)
        if value is not None:
            overrides[key] = value
    return cfg.with_overrides(**overrides)


def _write_manifest(command: str, out: str, config: RunConfig,
                    inputs: list[str], outputs: list[str]) -> None:
    root = os.path.abspath(out)    # an input inside it is recorded relative to it
    manifest = {
        "command": command,
        "version": __version__,
        "config": asdict(config),
        "inputs": {os.path.relpath(p, out)
                   if os.path.commonpath([os.path.abspath(p), root]) == root else p:
                   pipeline.sha256_file(p) for p in sorted(set(inputs))},
        "outputs": {os.path.relpath(p, out): pipeline.sha256_file(p)
                    for p in sorted(set(outputs))},
    }
    pipeline.write_json(os.path.join(out, f"manifest-{command}.json"), manifest)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepolicy",
        description="Battery-control pipeline: DQN teacher, distilled decision-tree students.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--debug", action="store_true",
                        help="re-raise a runtime failure with its traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize square-wave fixture profiles")
    _add_common(p)
    p.add_argument("--days", type=int, help="number of synthetic days")

    p = sub.add_parser("train-teacher", help="train the DQN teacher on stored profiles")
    _add_common(p)
    p.add_argument("--profiles", dest="profile_path", help="CSV (default: <out>/profiles.csv)")
    p.add_argument("--seed", type=int, dest="teacher_seed", help="teacher training seed")
    p.add_argument("--capacity-rate", type=float, dest="capacity_rate_eur_per_kw")

    p = sub.add_parser("distill", help="distill tree students from the stored teacher")
    _add_common(p)
    p.add_argument("--depth", type=int, default=2, help="student tree depth, 2 or 3")
    p.add_argument("--seeds", help="comma-separated student seeds")
    p.add_argument("--checkpoint", help="teacher checkpoint path override")
    p.add_argument("--buffer", help="visited-states file (replay.buf) path override")

    p = sub.add_parser("evaluate", help="compare rbc / dqn / students incl. the DP oracle")
    _add_common(p)
    p.add_argument("--profiles", dest="profile_path", help="CSV (default: <out>/profiles.csv)")
    p.add_argument("--depths", default="2", help="comma-separated student depths, 2 or 3")
    p.add_argument("--capacity-rate", type=float, dest="capacity_rate_eur_per_kw")

    p = sub.add_parser("heatmap", help="policy action maps over (soc, price)")
    _add_common(p)
    p.add_argument("--depths", default="2", help="comma-separated student depths, 2 or 3")
    p.add_argument("--seeds", help="student seeds to render (default: first config seed)")

    p = sub.add_parser("export-tree", help="render a stored crisp tree as text/dot/json")
    p.add_argument("--tree", required=True, help="path to a .tree.json artifact")
    p.add_argument("--format", default="text", help=f"one of {', '.join(EXPORT_FORMATS)}")
    p.add_argument("--out", help="output file (stdout if omitted)")

    p = sub.add_parser("reproduce", help="run both fixture scenarios and check the expected claims")
    _add_common(p)
    return parser


def _cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    outputs = pipeline.stage_gen_data(cfg, args.out)
    _write_manifest("gen-data", args.out, cfg, [], outputs)
    print(f"wrote {outputs[0]} ({cfg.days} days)")
    return 0


def _cmd_train_teacher(args) -> int:
    cfg = _resolve_config(args)
    res = pipeline.stage_train_teacher(cfg, args.out)
    _write_manifest("train-teacher", args.out, cfg, res["inputs"], res["outputs"])
    loss = "n/a (buffer never filled a batch)" if res["final_loss"] is None \
        else f"{res['final_loss']:.6f}"
    print(f"teacher trained: {cfg.episodes} episodes, final loss {loss}")
    for path in res["outputs"]:
        print(f"  {path}")
    return 0


def _check_depths(flag: str, depths: tuple[int, ...]) -> tuple[int, ...]:
    """``depths``, each one of ``pipeline.DEPTHS`` and none repeated."""
    for depth in depths:
        if depth not in pipeline.DEPTHS:
            raise ConfigError(f"{flag} takes {' or '.join(map(str, pipeline.DEPTHS))}, got {depth}")
    if len(set(depths)) != len(depths):
        raise ConfigError(f"{flag} lists a depth more than once: {depths}")
    return depths


def _cmd_distill(args) -> int:
    cfg = _resolve_config(args)
    (depth,) = _check_depths("--depth", (args.depth,))
    res = pipeline.stage_distill(cfg, args.out, depth, args.checkpoint, args.buffer)
    _write_manifest("distill", args.out, cfg, res["inputs"], res["outputs"])
    for row in res["per_seed"]:
        print(f"seed {row['seed']}: loss {row['final_loss']:.4f} "
              f"teacher-agreement {row['teacher_agreement']:.1%}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    depths = _check_depths("--depths", _parse_ints("--depths", args.depths))
    res = pipeline.stage_evaluate(cfg, args.out, depths)
    _write_manifest("evaluate", args.out, cfg, res["inputs"], res["outputs"])
    print(f"dp oracle mean: {res['dp_mean']:.3f} eur/day")
    for agg in res["aggregates"]:
        print(f"{agg['policy']:>6}: mean {agg['mean']:.3f} eur/day "
              f"({agg['improvement_vs_baseline_pct']:+.1f}% vs {BASELINE})")
    return 0


def _cmd_heatmap(args) -> int:
    cfg = _resolve_config(args)
    depths = _check_depths("--depths", _parse_ints("--depths", args.depths))
    # without --seeds, the stage renders the first config seed
    res = pipeline.stage_heatmap(cfg, args.out, depths, None if args.seeds is None else cfg.seeds)
    _write_manifest("heatmap", args.out, cfg, res["inputs"], res["outputs"])
    for panel in res["panels"]:
        print(f"{panel['policy']} demand={panel['demand_level']:.1f}: "
              f"{panel['regions']} regions, {panel['distinct_actions']} distinct actions")
    return 0


def _cmd_export_tree(args) -> int:
    rendered = export_rules(load_tree(args.tree), args.format)
    if args.out:
        try:
            write_text(args.out, rendered)
        except OSError as exc:   # a directory, or a missing parent directory
            raise ConfigError(f"--out {args.out!r} cannot be written: {exc}") from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_reproduce(args) -> int:
    cfg = _resolve_config(args)
    report = pipeline.run_reproduce(cfg, args.out)
    for scenario in ("scenario1", "scenario2"):
        print(f"[{scenario}]")
        for check in report[scenario]["checks"]:
            flag = "PASS" if check["passed"] else "FAIL"
            print(f"  {flag} {check['check']}: {check['detail']}")
    s1 = report["scenario1"]["summary"]
    print(f"costs (eur/day): rbc {s1['rbc_mean']:.3f}  dqn {s1['dqn_mean']:.3f}  "
          f"ddt2 {s1['ddt2_mean']:.3f}  ddt3 {s1['ddt3_mean']:.3f}  dp {s1['dp_mean']:.3f}")
    _write_manifest("reproduce", args.out, cfg, [],
                    [os.path.join(args.out, pipeline.REPRODUCE_SUMMARY)])
    if not report["all_passed"]:
        print("reproduce: some checks FAILED")
        return 1
    print("reproduce: all checks passed")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-teacher": _cmd_train_teacher,
    "distill": _cmd_distill,
    "evaluate": _cmd_evaluate,
    "heatmap": _cmd_heatmap,
    "export-tree": _cmd_export_tree,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if args.debug:
            raise
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
