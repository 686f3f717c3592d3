"""The benchmark's workloads: seeded generator files and the verdict each must get.

Import after ``checkout.use_checkout_sources()``.

Each workload writes a pool of generator JSON files at set-up; file ``i`` has
dimension ``dims[i % len(dims)]`` and its own instance seed derived from the
workload seed, so the same seed always gives byte-identical files.  The
benchmark loop cycles through the pool in order.  The program sees only the
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from posgen import (
    GeneratorSpec,
    InstanceRecipe,
    Superoperator,
    build,
    build_superoperator,
    flip_nonpositive,
    random_lindblad,
    subseed,
)


def _cp_lindblad(n: int, seed: int) -> GeneratorSpec:
    return build(InstanceRecipe(family="lindblad", n=n, seed=seed, k=2))


def _pnotcp_mixing(n: int, seed: int) -> GeneratorSpec:
    return build(InstanceRecipe(family="transpose_mixing", n=n, seed=seed))


def _violated_flip(n: int, seed: int) -> GeneratorSpec:
    # the flip_nonpositive family ignores its seed; adding a seeded Lindblad
    # part makes every instance distinct while keeping the semigroup
    # non-positive
    rep = (build_superoperator(random_lindblad(n, 2, seed)).rep
           + build_superoperator(flip_nonpositive(n, 1.0)).rep)
    return GeneratorSpec(kind="explicit", n=n, superop=Superoperator(n, rep))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, int], GeneratorSpec]
    dims: tuple
    pool: int  # files written at set-up
    trace_reports: int  # files in one traced pass, a whole number of dims cycles
    expect_violated: bool  # the theorem1 semigroup_positive verdict it must get

    def file_name(self, i: int) -> str:
        return f"{self.name}-{i:04d}-n{self.dims[i % len(self.dims)]}.json"

    def generate(self, seed: int, directory: Path) -> list:
        """Write the pool of generator files for ``seed``; return their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for i in range(self.pool):
            spec = self.make(self.dims[i % len(self.dims)], subseed(seed, i))
            path = directory / self.file_name(i)
            path.write_text(json.dumps(spec.to_json(), sort_keys=True))
            paths.append(path)
        return paths

    def check(self, exit_code, output: str):
        """Return why one report failed, or None when it is correct.

        A correct report exits 0, prints JSON with ``consistent`` true, and its
        theorem1 ``semigroup_positive`` verdict matches how the instance was
        built: ``violated`` for non-positive instances and anything else for
        positive ones, so that finer verdicts than ``satisfied`` still pass.
        """
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            payload = json.loads(output)
        except json.JSONDecodeError:
            return "output is not JSON"
        if not isinstance(payload, dict) or payload.get("consistent") is not True:
            return "consistent is not true"
        conditions = payload.get("sections", {}).get("theorem1", {}).get("conditions")
        verdict = next((c.get("verdict") for c in conditions or ()
                        if c.get("id") == "semigroup_positive"), None)
        if verdict is None:
            return "theorem1 has no semigroup_positive verdict"
        if (verdict == "violated") != self.expect_violated:
            return f"semigroup_positive verdict {verdict!r} contradicts the instance"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cp_lindblad",
            why="CP Lindblad maps, n=3: every cone search stops at the Choi "
                "certificate, so exponentials, probes, CLI and JSON work dominate",
            make=_cp_lindblad, dims=(3,), pool=256, trace_reports=64,
            expect_violated=False,
        ),
        Workload(
            name="pnotcp_mixing",
            why="positive but not CP maps, n cycling 4, 6, 8: every cone search "
                "runs its full descent on maps up to 64x64 and finds nothing",
            make=_pnotcp_mixing, dims=(4, 6, 8), pool=24, trace_reports=3,
            expect_violated=False,
        ),
        Workload(
            name="violated_flip",
            why="seeded non-positive maps, n=4: every cone search finds a "
                "violation and theorem2 stops at its first contraction check",
            make=_violated_flip, dims=(4,), pool=64, trace_reports=8,
            expect_violated=True,
        ),
    )
}
