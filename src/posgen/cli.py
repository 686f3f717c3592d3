"""Batch command-line interface.

Subcommands
    report    load a generator from JSON, run the full equivalence report
    fuzz      generate seeded instances of one family and report on each
    instance  build a named instance and emit its generator JSON
    evolve    push a density matrix through the predual semigroup

Exit codes: 0 when every consistency check agrees (hypothesis failures are
reported in the payload but are not inconsistencies), 2 when some equivalence
check disagrees with itself, 1 on input errors.  Identical command line +
seed gives byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

import numpy as np

from .config import FORMATS, RunConfig, subseed
from .duality import TRACE_T_GRID, DensityMatrix, trace_preservation_check, trajectory_records
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    HypothesisViolation,
    PropagatorOverflow,
    ResolventPoleError,
    SchemaError,
)
from .instances import InstanceRecipe, build, density_from
from .criteria import theorem1_report, theorem2_check
from .semigroup import GeneratorSpec, SemigroupHandle, build_maps


class _CliError(Exception):
    """Bad input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # route usage errors through the exit-code contract instead of
    # argparse's default SystemExit(2)
    def error(self, message):
        raise _CliError(message)


# Built once per process: parse_args only reads the parser, so every call of
# main can share it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--samples", type=int, default=None,
                        help="probe count for self-adjoint, unitary and state probes")
    common.add_argument("--t-grid", dest="t_grid", default=None, metavar="T1,T2,...")
    common.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                        metavar="M1,M2,...", help="multipliers for the resolvent grid")
    common.add_argument("--format", choices=FORMATS, default=None)
    common.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config file; overrides flags")
    common.add_argument("-o", "--output", default=None, metavar="FILE")

    parser = _Parser(prog="posgen",
                     description="positivity checks for matrix semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", parents=[common],
                       help="full equivalence report for one generator")
    p.add_argument("generator_file")

    p = sub.add_parser("fuzz", parents=[common],
                       help="run the report over seeded instances of a family")
    p.add_argument("family")
    p.add_argument("count", type=int)
    p.add_argument("-n", "--dim", dest="dim", type=int, default=2)

    p = sub.add_parser("instance", parents=[common],
                       help="emit generator JSON for a named instance")
    p.add_argument("family")
    p.add_argument("-n", "--dim", dest="dim", type=int, default=2)
    p.add_argument("--ops", dest="k", type=int, default=1,
                   help="number of jump operators (lindblad-backed families)")
    p.add_argument("--scale", type=float, default=4.0)

    p = sub.add_parser("evolve", parents=[common],
                       help="predual trajectory of a state")
    p.add_argument("generator_file")
    p.add_argument("state_file")
    p.add_argument("-t", "--time", dest="times", action="append", type=float,
                   default=None, metavar="T")

    return parser


def _parse_grid(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise _CliError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise _CliError(f"{flag} expects at least one value")
    return values


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: not valid JSON ({exc})")


def _parse_file(path: str, parse):
    """``parse`` of the file's JSON payload; a failure is an input error naming the file."""
    payload = _load_json(path)
    try:
        return parse(payload)
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}")


def _resolve_config(args) -> RunConfig:
    """Defaults, updated by the payload of the flags set, then by the config file."""
    payload = {"seed": args.seed, "samples": args.samples, "format": args.format,
               "tolerances": {}}
    if args.t_grid is not None:
        payload["t_grid"] = _parse_grid(args.t_grid, "--t-grid")
    if args.lambda_grid is not None:
        payload["lambda_multipliers"] = _parse_grid(args.lambda_grid, "--lambda-grid")
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise _CliError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            payload["tolerances"][name] = float(value)
        except ValueError:
            raise _CliError(f"--tol {name}: {value!r} is not a number")
    cfg = RunConfig().updated({k: v for k, v in payload.items() if v is not None})
    if args.config is not None:
        cfg = _parse_file(args.config, cfg.updated)
    return cfg


def _load_generator(path: str) -> SemigroupHandle:
    return _parse_file(path, lambda payload: SemigroupHandle(GeneratorSpec.from_json(payload)))


def _report_sections(h: SemigroupHandle, cfg: RunConfig):
    """All three checks; returns (sections dict, consistency flags)."""
    # every T_t the checks ask for, in one stacked exponential; the prebuild
    # raises nothing, so each check still reports its own first overflow
    build_maps(h, "semigroup", cfg.t_grid + TRACE_T_GRID)
    sections = {}
    flags = []
    try:
        t1 = theorem1_report(h, cfg)
        sections["theorem1"] = t1.to_json()
        flags.append(bool(t1.consistency_flag))
    except HypothesisViolation as exc:
        sections["theorem1"] = {"hypothesis_violation": str(exc)}
    try:
        t2 = theorem2_check(h, cfg)
        sections["theorem2"] = t2.to_json()
        flags.append(bool(t2.direction_consistency))
    except HypothesisViolation as exc:
        sections["theorem2"] = {"hypothesis_violation": str(exc)}
    states = density_from(np.random.default_rng(np.random.SeedSequence((cfg.seed, 47))),
                          h.n, k=max(1, cfg.samples))
    tp = trace_preservation_check(h, states, tol=cfg.tol("trace"))
    sections["trace_preservation"] = tp.to_json()
    flags.append(bool(tp.consistent))
    return sections, flags


def _print_report_text(payload: dict, out) -> None:
    print(f"n = {payload['n']}  seed = {payload['seed']}", file=out)
    sections = payload["sections"]
    t1 = sections["theorem1"]
    if "hypothesis_violation" in t1:
        print(f"theorem1: hypothesis violation: {t1['hypothesis_violation']}", file=out)
    else:
        print(f"theorem1: consistent={t1['consistency']}", file=out)
        for c in t1["conditions"]:
            print(f"  {c['id']:<22} {c['verdict']:<10} "
                  f"min_margin={c['min_margin']:+.3e}", file=out)
    t2 = sections["theorem2"]
    if "hypothesis_violation" in t2:
        print(f"theorem2: hypothesis violation: {t2['hypothesis_violation']}", file=out)
    else:
        print(f"theorem2: consistent={t2['direction_consistency']} "
              f"unit_margin={t2['unit_margin']:.3e} "
              f"contraction={t2['contraction']['status']} "
              f"positive={t2['positive']['status']} "
              f"unital_margin={t2['unital_margin']:.3e}", file=out)
    tp = sections["trace_preservation"]
    print(f"trace_preservation: consistent={tp['consistent']} "
          f"trace_margin={tp['trace_margin']:.3e} "
          f"unit_margin={tp['unit_margin']:.3e}", file=out)
    print(f"consistent: {payload['consistent']}", file=out)


def cmd_report(args, cfg: RunConfig, out) -> int:
    h = _load_generator(args.generator_file)
    sections, flags = _report_sections(h, cfg)
    consistent = all(flags)
    payload = {
        "n": h.n,
        "seed": cfg.seed,
        "consistent": consistent,
        "sections": sections,
    }
    if cfg.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        _print_report_text(payload, out)
    return 0 if consistent else 2


def cmd_fuzz(args, cfg: RunConfig, out) -> int:
    if args.count < 1:
        raise _CliError("count must be >= 1")
    recipes = [
        InstanceRecipe(family=args.family, n=args.dim, seed=subseed(cfg.seed, 53, i))
        for i in range(args.count)
    ]

    results = []
    for idx, recipe in enumerate(recipes):
        local = cfg.replace(seed=subseed(cfg.seed, 59, idx))
        h = SemigroupHandle(build(recipe))
        sections, flags = _report_sections(h, local)
        verdicts, margins = {}, {}
        for c in sections["theorem1"].get("conditions", ()):
            verdicts[c["id"]] = c["verdict"]
            margins[c["id"]] = c["min_margin"]
        results.append({
            "index": idx,
            "recipe": recipe.to_json(),
            "consistent": all(flags),
            "verdicts": verdicts,
            "min_margins": margins,
        })

    worst = {}
    for r in results:
        for cid, margin in r["min_margins"].items():
            if cid not in worst or margin < worst[cid]:
                worst[cid] = margin
    inconsistencies = sum(1 for r in results if not r["consistent"])
    payload = {
        "family": args.family,
        "n": args.dim,
        "count": args.count,
        "seed": cfg.seed,
        "inconsistencies": inconsistencies,
        "consistent": inconsistencies == 0,
        "worst_margins": {k: float(v) for k, v in sorted(worst.items())},
        "results": results,
    }
    if cfg.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(f"family={args.family} n={args.dim} count={args.count} "
              f"seed={cfg.seed}", file=out)
        print(f"inconsistencies: {inconsistencies}", file=out)
        print("worst margins:", file=out)
        for cid, margin in sorted(worst.items()):
            print(f"  {cid:<22} {margin:+.3e}", file=out)
    return 0 if inconsistencies == 0 else 2


def cmd_instance(args, cfg: RunConfig, out) -> int:
    spec = build(InstanceRecipe(family=args.family, n=args.dim, seed=cfg.seed,
                                k=args.k, scale=args.scale))
    if cfg.format == "json":
        print(json.dumps(spec.to_json(), indent=2, sort_keys=True), file=out)
    else:
        print(f"family={args.family} n={spec.n} kind={spec.kind} seed={cfg.seed}", file=out)
    return 0


def cmd_evolve(args, cfg: RunConfig, out) -> int:
    h = _load_generator(args.generator_file)
    state = _parse_file(args.state_file, DensityMatrix.from_json)
    if state.n != h.n:
        raise _CliError(
            f"dimension mismatch: generator acts on {h.n}x{h.n} matrices, "
            f"state is {state.n}x{state.n}")
    times = args.times if args.times is not None else list(TRACE_T_GRID)
    if not all(np.isfinite(t) for t in times):
        raise _CliError("evolution times must be finite")
    if any(t < 0 for t in times):
        raise _CliError("evolution times must be >= 0")
    records = trajectory_records(h, state.rho, times)
    for rec in records:
        if cfg.format == "json":
            print(json.dumps(rec, sort_keys=True), file=out)
        else:
            print(f"t={rec['t']:g} trace={rec['trace']:.12f} "
                  f"min_eig={rec['min_eig']:+.6e} purity={rec['purity']:.6f}", file=out)
    return 0


_COMMANDS = {
    "report": cmd_report,
    "fuzz": cmd_fuzz,
    "instance": cmd_instance,
    "evolve": cmd_evolve,
}


def _discard_stdout() -> None:
    """Point the interpreter's own stdout at the null device after a failed write.

    What is left in its buffer would fail again, with a second message, when
    the interpreter flushes it at exit.  A stream put in its place by an
    in-process caller is left alone, and so is one without a file descriptor.
    """
    if sys.stdout is not sys.__stdout__:
        return
    try:
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        handler = _COMMANDS[args.command]
        try:
            if args.output is not None:
                with open(args.output, "w") as out:
                    return handler(args, cfg, out)
            code = handler(args, cfg, sys.stdout)
            sys.stdout.flush()
            return code
        except OSError as exc:
            if args.output is not None:
                raise _CliError(f"cannot write {args.output}: {exc}")
            _discard_stdout()
            raise _CliError(f"cannot write output: {exc}")
    except (_CliError, SchemaError, DimensionMismatch, PropagatorOverflow,
            ResolventPoleError) as exc:
        print(f"posgen: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an input too large to hold, such as a huge -n; numpy names the request
        print(f"posgen: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"posgen: internal consistency failure: {exc}", file=sys.stderr)
        return 2
