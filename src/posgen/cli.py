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

from ._blas import single_blas_thread
from .config import FORMATS, RunConfig, subseed
from .duality import DensityMatrix, trace_preservation_check, trajectory_records
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    HypothesisViolation,
    PropagatorOverflow,
    SchemaError,
)
from .instances import FAMILIES, InstanceRecipe, build, density_from
from .criteria import theorem1_report, theorem2_check
from .semigroup import GeneratorSpec, SemigroupHandle, build_superoperator


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


def _resolve_config(args) -> RunConfig:
    """Defaults, overridden by flags, overridden by the config file."""
    cfg = RunConfig()

    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.samples is not None:
        updates.update(n_selfadjoint=args.samples, n_unitary=args.samples,
                       n_states=args.samples)
    if args.t_grid is not None:
        updates["t_grid"] = _parse_grid(args.t_grid, "--t-grid")
    if args.lambda_grid is not None:
        updates["lambda_multipliers"] = _parse_grid(args.lambda_grid, "--lambda-grid")
    if args.format is not None:
        updates["format"] = args.format
    overrides = {}
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise _CliError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise _CliError(f"--tol {name}: {value!r} is not a number")
    if overrides:
        updates["tolerances"] = {**cfg.tolerances, **overrides}
    try:
        cfg = cfg.replace(**updates)
    except SchemaError as exc:
        raise _CliError(str(exc))

    if args.config is not None:
        payload = _load_json(args.config)
        if not isinstance(payload, dict):
            raise _CliError(f"{args.config}: config must be a JSON object")
        merged = cfg.to_json()
        for key, value in payload.items():
            if key == "tolerances":
                if not isinstance(value, dict):
                    raise _CliError(f"{args.config}: tolerances must be an object")
                merged["tolerances"] = {**merged["tolerances"], **value}
            else:
                merged[key] = value
        try:
            cfg = RunConfig.from_json(merged)
        except SchemaError as exc:
            raise _CliError(f"{args.config}: {exc}")
    return cfg


def _load_generator(path: str) -> SemigroupHandle:
    payload = _load_json(path)
    try:
        spec = GeneratorSpec.from_json(payload)
        return SemigroupHandle(build_superoperator(spec))
    except (SchemaError, ValueError) as exc:
        raise _CliError(f"{path}: {exc}")


def _report_sections(h: SemigroupHandle, cfg: RunConfig):
    """All three checks; returns (sections dict, consistency flags)."""
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
                          h.n, k=max(1, cfg.n_states))
    tp = trace_preservation_check(h, states, t_grid=cfg.trace_t_grid,
                                  tol=cfg.tol("trace"))
    sections["trace_preservation"] = tp.to_json()
    flags.append(bool(tp.consistent))
    return sections, flags


def _emit(text: str, out) -> None:
    print(text, file=out)


def _print_report_text(payload: dict, out) -> None:
    _emit(f"n = {payload['n']}  seed = {payload['seed']}", out)
    sections = payload["sections"]
    t1 = sections["theorem1"]
    if "hypothesis_violation" in t1:
        _emit(f"theorem1: hypothesis violation: {t1['hypothesis_violation']}", out)
    else:
        _emit(f"theorem1: consistent={t1['consistency']}", out)
        for c in t1["conditions"]:
            _emit(f"  {c['id']:<22} {c['verdict']:<10} "
                  f"min_margin={c['min_margin']:+.3e}", out)
    t2 = sections["theorem2"]
    if "hypothesis_violation" in t2:
        _emit(f"theorem2: hypothesis violation: {t2['hypothesis_violation']}", out)
    else:
        _emit(f"theorem2: consistent={t2['direction_consistency']} "
              f"unit_margin={t2['unit_margin']:.3e} "
              f"positive={t2['positive']['status']} "
              f"unital_margin={t2['unital_margin']:.3e}", out)
    tp = sections["trace_preservation"]
    _emit(f"trace_preservation: consistent={tp['consistent']} "
          f"trace_margin={tp['trace_margin']:.3e} "
          f"unit_margin={tp['unit_margin']:.3e}", out)
    _emit(f"consistent: {payload['consistent']}", out)


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
        _emit(json.dumps(payload, indent=2, sort_keys=True), out)
    else:
        _print_report_text(payload, out)
    return 0 if consistent else 2


def cmd_fuzz(args, cfg: RunConfig, out) -> int:
    if args.family not in FAMILIES:
        raise _CliError(
            f"unknown family {args.family!r}; choose from {', '.join(FAMILIES)}")
    if args.count < 1:
        raise _CliError("count must be >= 1")
    try:
        recipes = [
            InstanceRecipe(family=args.family, n=args.dim,
                           seed=subseed(cfg.seed, 53, i))
            for i in range(args.count)
        ]
    except SchemaError as exc:
        raise _CliError(str(exc))

    results = []
    for idx, recipe in enumerate(recipes):
        local = cfg.replace(seed=subseed(cfg.seed, 59, idx))
        h = SemigroupHandle(build_superoperator(build(recipe)))
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
        _emit(json.dumps(payload, indent=2, sort_keys=True), out)
    else:
        _emit(f"family={args.family} n={args.dim} count={args.count} "
              f"seed={cfg.seed}", out)
        _emit(f"inconsistencies: {inconsistencies}", out)
        _emit("worst margins:", out)
        for cid, margin in sorted(worst.items()):
            _emit(f"  {cid:<22} {margin:+.3e}", out)
    return 0 if inconsistencies == 0 else 2


def cmd_instance(args, cfg: RunConfig, out) -> int:
    if args.family not in FAMILIES:
        raise _CliError(
            f"unknown family {args.family!r}; choose from {', '.join(FAMILIES)}")
    try:
        recipe = InstanceRecipe(family=args.family, n=args.dim, seed=cfg.seed,
                                k=args.k, scale=args.scale)
        spec = build(recipe)
    except SchemaError as exc:
        raise _CliError(str(exc))
    if cfg.format == "json":
        _emit(json.dumps(spec.to_json(), indent=2, sort_keys=True), out)
    else:
        _emit(f"family={args.family} n={spec.n} kind={spec.kind} seed={cfg.seed}", out)
    return 0


def cmd_evolve(args, cfg: RunConfig, out) -> int:
    h = _load_generator(args.generator_file)
    state_payload = _load_json(args.state_file)
    try:
        state = DensityMatrix.from_json(state_payload)
    except SchemaError as exc:
        raise _CliError(f"{args.state_file}: {exc}")
    if state.n != h.n:
        raise _CliError(
            f"dimension mismatch: generator acts on {h.n}x{h.n} matrices, "
            f"state is {state.n}x{state.n}")
    times = args.times if args.times is not None else list(cfg.trace_t_grid)
    if not all(np.isfinite(t) for t in times):
        raise _CliError("evolution times must be finite")
    if any(t < 0 for t in times):
        raise _CliError("evolution times must be >= 0")
    records = trajectory_records(h, state.rho, times)
    for rec in records:
        if cfg.format == "json":
            _emit(json.dumps(rec, sort_keys=True), out)
        else:
            _emit(f"t={rec['t']:g} trace={rec['trace']:.12f} "
                  f"min_eig={rec['min_eig']:+.6e} purity={rec['purity']:.6f}", out)
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
    with single_blas_thread():
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
        except _CliError as exc:
            print(f"posgen: error: {exc}", file=sys.stderr)
            return 1
        except (SchemaError, DimensionMismatch, PropagatorOverflow) as exc:
            print(f"posgen: error: {exc}", file=sys.stderr)
            return 1
        except ConsistencyError as exc:
            print(f"posgen: internal consistency failure: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
