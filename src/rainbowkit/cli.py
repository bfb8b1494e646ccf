"""Command-line interface.

Verbs:
  solve     rainbow | transversal | egz | mcpath  (witness JSON or "infeasible")
  verify    drisko | general | bgs | extremal | counting | dichotomy | egz |
            egz-extremal | transversal | sharpness  (campaign report JSON)
  generate  instance files, including the canonical cycle family
  classify  family | multiset  (classification JSON)

Exit codes: 0 success or clean campaign, 1 infeasible instance or campaign
violations, 2 malformed input, impossible generator spec or output that
cannot be written (a failed ``--out`` write, or stdout closed early), 3 step
budget exhausted, 4 internal invariant failure (never expected), which
includes a ``solve`` or ``classify`` verdict that ``campaigns.certifies``
rejects before it is printed. Results go to stdout as JSON with sorted keys;
diagnostics go to stderr. The environment variable RAINBOWKIT_BUDGET
overrides the default step budget, and each verb passes it on as it is: to
every search and oracle a ``verify`` campaign starts, to the search behind
every ``solve`` and ``classify`` kind (the library functions behind ``solve
egz`` and ``classify multiset`` also charge their shift family's edges
against it), and to the instance sizes ``generate`` may build.

Instance file schemas are documented in ``rainbowkit.jsonio``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import jsonio
from .campaigns import THEOREMS, certifies, run_campaign
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DichotomyViolation,
    GuaranteeViolation,
    InputError,
    RainbowkitError,
    TheoremViolation,
    charge,
)
from .network_paths import find_multicolored_st_path
from .oracle import GenSpec, canonical_cycle_family, generate
from .rainbow_solver import classify_family, find_rainbow_matching
from .reductions import (
    ResidueMultiset,
    classify_multiset,
    find_transversal,
    find_zero_sum_subset,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget() -> int:
    raw = os.environ.get("RAINBOWKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise InputError(f"RAINBOWKIT_BUDGET must be a positive integer, got {raw!r}")
    return value


def _emit(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True))


def _certified(verdict, instance, size: Optional[int] = None, required: bool = False):
    """``verdict``, or GuaranteeViolation when ``certifies`` rejects it."""
    if not certifies(verdict, instance, size, required):
        raise GuaranteeViolation(f"{type(verdict).__name__} verdict fails its check")
    return verdict


def _load(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")


def _parse_elements(raw: str, where: str) -> tuple[int, ...]:
    if raw == "":
        return ()
    parts = raw.split(",")
    if "" in parts:
        raise InputError(f"{where}: empty item in comma-separated list {raw!r}")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise InputError(f"{where}: expected a comma-separated integer list, got {raw!r}")


def _parse_counted(raw: str, where: str, count: int) -> tuple[int, ...]:
    values = _parse_elements(raw, where)
    if len(values) != count:
        raise InputError(f"{where}: expected {count} comma-separated integers, got {raw!r}")
    return values


def _refuse_unread(args: argparse.Namespace, run: str, *flags: str) -> None:
    """Raise InputError naming the first of ``flags`` given to a run that
    would not read it."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            raise InputError(f"{run} ignores {flag}")


def _multiset_argument(args: argparse.Namespace, run: str) -> ResidueMultiset:
    """The residue multiset to solve or classify, from ``--input`` or from
    ``--n`` and ``--elements``."""
    if args.input:
        _refuse_unread(args, f"{run} with --input", "--n", "--elements")
        return jsonio.multiset_from_obj(_load(args.input))
    if args.n is None or args.elements is None:
        raise InputError("need either --input or both --n and --elements")
    return ResidueMultiset(args.n, _parse_elements(args.elements, "--elements"))


def _cmd_solve(args: argparse.Namespace) -> int:
    run = f"solve {args.kind}"
    if args.kind != "rainbow":
        _refuse_unread(args, run, "--target")
    if args.kind != "egz":
        _refuse_unread(args, run, "--n", "--elements")
        if not args.input:
            raise InputError(f"{run} needs --input")
    if args.kind == "rainbow":
        instance = jsonio.family_from_obj(_load(args.input))
        if args.target is None:
            raise InputError("solve rainbow needs --target")
        found = find_rainbow_matching(instance, args.target, _budget())
        to_obj = jsonio.rainbow_to_obj
    elif args.kind == "transversal":
        instance = jsonio.matrix_from_obj(_load(args.input))
        found = find_transversal(instance, _budget())
        to_obj = jsonio.transversal_to_obj
    elif args.kind == "egz":
        instance = _multiset_argument(args, run)
        found = find_zero_sum_subset(instance, _budget())
        to_obj = jsonio.zero_sum_to_obj
    else:
        assert args.kind == "mcpath"
        instance = jsonio.network_from_obj(_load(args.input))
        found = find_multicolored_st_path(instance, budget=_budget())
        to_obj = jsonio.colored_path_to_obj
    # only a rainbow matching's check reads a size: the target, None elsewhere
    if _certified(found, instance, args.target) is None:
        print("infeasible")
        return EXIT_INFEASIBLE
    _emit(to_obj(found))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_campaign(
        args.theorem,
        n=args.n,
        samples=args.samples,
        exhaustive=args.exhaustive,
        seed=args.seed,
        budget=_budget(),
    )
    _emit(report.to_obj())
    return EXIT_OK if report.violations == 0 else EXIT_INFEASIBLE


def _charge_sizes(total: int, unit: str, *sizes: int) -> None:
    """Charge ``total`` against the budget before anything is built; a spec
    with a size below 1 is left to the generator, which refuses it."""
    if min(sizes, default=1) >= 1:
        charge(total, unit, _budget())


def _generate_spec(args: argparse.Namespace):
    chosen = [
        name for name in
        ("canonical", "family_uniform", "family_mixed", "network", "multiset",
         "matrix")
        if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise InputError("pick exactly one instance kind to generate")
    kind = chosen[0]
    if kind != "canonical":
        _refuse_unread(args, "generate without --canonical", "--n")
    if kind != "family_mixed":
        _refuse_unread(args, "generate without --family-mixed", "--side")
    if kind == "canonical":
        if args.canonical != "c2n":
            raise InputError(f"unknown canonical instance {args.canonical!r}")
        if args.n is None:
            raise InputError("--canonical c2n needs --n")
        _charge_sizes((2 * args.n - 2) * args.n, "edges", args.n)
        return jsonio.family_to_obj(canonical_cycle_family(args.n))
    if kind == "family_uniform":
        n, m, side = _parse_counted(args.family_uniform, "--family-uniform", 3)
        _charge_sizes(n * m, "edges", n, m)
        return jsonio.family_to_obj(generate(GenSpec.family_uniform(n, m, side, args.seed)))
    if kind == "family_mixed":
        sizes = _parse_elements(args.family_mixed, "--family-mixed")
        if args.side is None:
            raise InputError("--family-mixed needs --side")
        _charge_sizes(sum(sizes), "edges", *sizes)
        return jsonio.family_to_obj(generate(GenSpec.family_mixed(sizes, args.side, args.seed)))
    if kind == "network":
        inner, groups, per_group = _parse_counted(args.network, "--network", 3)
        # the generator trims the path counts by scanning every group once per
        # path it drops, and gives each group its own shuffled copy of the
        # inner nodes
        _charge_sizes(groups * (groups * per_group + inner), "steps",
                      inner, groups, per_group)
        return jsonio.network_to_obj(generate(GenSpec.network(inner, groups, per_group, args.seed)))
    if kind == "multiset":
        n, size = _parse_counted(args.multiset, "--multiset", 2)
        _charge_sizes(size, "residues", n, size)
        return jsonio.multiset_to_obj(generate(GenSpec.multiset(n, size, args.seed)))
    assert kind == "matrix"
    m, n, symbols = _parse_counted(args.matrix, "--matrix", 3)
    _charge_sizes(m * n, "cells", m, n)
    return jsonio.matrix_to_obj(generate(GenSpec.matrix(m, n, symbols, args.seed)))


def _cmd_generate(args: argparse.Namespace) -> int:
    obj = _generate_spec(args)
    text = json.dumps(obj, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}")
    else:
        print(text)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.kind == "family":
        _refuse_unread(args, "classify family", "--n", "--elements")
        if not args.input:
            raise InputError("classify family needs --input")
        family = jsonio.family_from_obj(_load(args.input))
        verdict = _certified(classify_family(family, _budget()), family,
                             len(family) // 2 + 1, required=True)
        _emit(jsonio.family_classification_to_obj(verdict))
        return EXIT_OK
    assert args.kind == "multiset"
    multiset = _multiset_argument(args, "classify multiset")
    verdict = _certified(classify_multiset(multiset, _budget()), multiset, required=True)
    _emit(jsonio.multiset_classification_to_obj(verdict))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowkit",
        description="Rainbow matchings, multicolored paths, transversals, "
                    "zero-sum subsets: solvers and verification campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="Solve a single instance from a file.")
    solve.add_argument("kind", choices=("rainbow", "transversal", "egz", "mcpath"))
    solve.add_argument("--input", help="Instance file (JSON).")
    solve.add_argument("--target", type=int, help="Rainbow matching size to reach.")
    solve.add_argument("--n", type=int, help="Modulus for inline egz input.")
    solve.add_argument("--elements", help="Comma-separated residues for inline egz input.")

    verify = sub.add_parser("verify", help="Run a theorem-verification campaign.")
    verify.add_argument("theorem", choices=THEOREMS)
    verify.add_argument("--n", type=int, help="Size parameter of the campaign.")
    verify.add_argument("--samples", type=int, help="Number of random instances.")
    verify.add_argument("--exhaustive", action="store_true",
                        help="Enumerate the whole instance space instead of sampling.")
    verify.add_argument("--seed", type=int, help="Seed of the random instances (default 0).")

    gen = sub.add_parser("generate", help="Write an instance file.")
    gen.add_argument("--canonical", help="Named instance; c2n is the split-cycle family.")
    gen.add_argument("--family-uniform", help="n,m,side")
    gen.add_argument("--family-mixed", help="comma-separated matching sizes")
    gen.add_argument("--side", type=int, help="Side size for --family-mixed.")
    gen.add_argument("--network", help="inner,groups,paths_per_group")
    gen.add_argument("--multiset", help="n,size")
    gen.add_argument("--matrix", help="rows,cols,symbols")
    gen.add_argument("--n", type=int, help="Parameter for --canonical.")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="Output path; stdout when omitted.")

    classify = sub.add_parser("classify", help="Classify a family or residue multiset.")
    classify.add_argument("kind", choices=("family", "multiset"))
    classify.add_argument("--input", help="Instance file (JSON).")
    classify.add_argument("--n", type=int, help="Modulus for inline multiset input.")
    classify.add_argument("--elements", help="Comma-separated residues.")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "generate": _cmd_generate,
        "classify": _cmd_classify,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GuaranteeViolation, TheoremViolation, DichotomyViolation) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RainbowkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
