"""Command line driver: run/validate experiment configs, diff artifacts.

Exit code 0 from `run` means every stage threshold in the config passed
(with --strict, warnings also count as failures); a config that does not
parse prints `invalid: <reason>` and exits 1.  The default output root
is ./runs, overridable by --output or the TORUSHJ_OUTPUT_ROOT environment
variable.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError
from .experiments import EXPERIMENT_KINDS, parse_config, run_experiment
from .models import BUILTIN_MODEL_NAMES


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torushj",
                                description="discounted Hamilton-Jacobi laboratory on flat tori")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config")
    run.add_argument("--output", default=None, help="artifact directory (default runs/<name>)")
    run.add_argument("--strict", action="store_true", help="treat warnings as failures")

    val = sub.add_parser("validate", help="schema-validate a config without computing")
    val.add_argument("config")

    sub.add_parser("list-models", help="list built-in models and experiment kinds")

    diff = sub.add_parser("diff-artifacts", help="compare two artifact directories by hash")
    diff.add_argument("dir_a")
    diff.add_argument("dir_b")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command in ("validate", "run"):
        try:
            cfg = parse_config(args.config)
        except ConfigurationError as exc:
            print(f"invalid: {exc}")
            return 1

    if args.command == "validate":
        print(f"ok: kind={cfg.kind} model={cfg.model_name} grid=({cfg.d},{cfg.n}) "
              f"vset=({cfg.vmax},{cfg.m}) lambdas={list(cfg.lambdas)}")
        return 0

    if args.command == "list-models":
        print("models:")
        for name in BUILTIN_MODEL_NAMES:
            print(f"  {name}")
        print("experiment kinds:")
        for kind in EXPERIMENT_KINDS:
            print(f"  {kind}")
        return 0

    if args.command == "diff-artifacts":
        from .artifacts import diff_artifacts
        diffs = diff_artifacts(args.dir_a, args.dir_b)
        for rel, status in diffs:
            print(f"{status}: {rel}")
        if not diffs:
            print("identical")
        return 0 if not diffs else 1

    if args.command == "run":
        result = run_experiment(cfg, output=args.output, strict=args.strict)
        for s in result.stages:
            mark = "PASS" if s.ok else "FAIL"
            extra = f"  ({s.error})" if s.error else ""
            print(f"[{mark}] {s.name}{extra}")
            for w in s.warnings:
                print(f"       warning: {w}")
        print(f"artifacts: {result.outdir}")
        print("PASSED" if result.passed else "FAILED")
        return 0 if result.passed else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
