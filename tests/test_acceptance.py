"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line on success so a plain
pytest run reads as a checklist.  These intentionally re-derive their oracles
inline (closed forms, independent eigensolves) rather than trusting library
internals.
"""

import json
import math
import time

import numpy as np
import pytest

from posgen.cli import main
from posgen.config import RunConfig
from posgen.criteria import (
    CONDITION_IDS,
    check_condition,
    dissipation,
    ProbeSet,
    theorem1_report,
    theorem2_check,
)
from posgen.duality import trace_preservation_check
from posgen.instances import (
    FAMILIES,
    InstanceRecipe,
    build,
    dephasing,
    flip_nonpositive,
    lindblad,
    random_hermitian,
    random_lindblad,
    transpose_mixing,
)
from posgen.matrixcore import mat_exp, spectral_norm
from posgen.semigroup import (
    SemigroupHandle,
    build_superoperator,
    euler_product,
    evolve,
    lambda_grid,
    resolvent,
    yosida_generator,
    yosida_semigroup,
)
from posgen.superop import (
    CERTIFIED_POSITIVE,
    VIOLATED,
    Superoperator,
    apply,
    choi_matrix,
    cp_check,
    transpose_map,
)

from conftest import laplace_resolvent, rand_complex

E00 = np.diag([1.0, 0.0]).astype(complex)


def handle(spec) -> SemigroupHandle:
    return SemigroupHandle(build_superoperator(spec))


def _family_instances(seed=0):
    """One representative generator per instance family."""
    return {
        "lindblad": build(InstanceRecipe(family="lindblad", n=3, seed=seed, k=2)),
        "hamiltonian": build(InstanceRecipe(family="hamiltonian", n=3, seed=seed)),
        "dephasing": dephasing(3),
        "transpose_conjugated": build(
            InstanceRecipe(family="transpose_conjugated", n=2, seed=seed)
        ),
        "transpose_mixing": build(
            InstanceRecipe(family="transpose_mixing", n=2, seed=seed)
        ),
        "flip_nonpositive": flip_nonpositive(2),
    }


def test_01_positive_family_consistency():
    """300 random Lindblad generators: every condition satisfied, consistent."""
    t0 = time.perf_counter()
    cfg = RunConfig()  # 50 + 50 probes, t-grid (0.1, 1, 10), multipliers (1, 10, 100)
    count = 0
    worst = np.inf
    for n in (2, 3, 4):
        for i in range(100):
            h = handle(random_lindblad(n, 2, seed=i))
            report = theorem1_report(h, cfg.replace(seed=i))
            assert report.consistency_flag, (n, i)
            for cond in report.conditions:
                assert cond.verdict == "satisfied", (n, i, cond.condition_id)
                assert cond.min_margin >= -1e-8, (n, i, cond.condition_id)
                worst = min(worst, cond.min_margin)
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(f"\n[criterion 01] PASS positive-family consistency: {count} instances, "
          f"worst margin {worst:+.2e}, {elapsed:.1f}s")


def test_02_negative_control_flip():
    """Flip generator and scaled variants: violations with exact witnesses."""
    cfg = RunConfig()
    h = handle(flip_nonpositive(2))

    # closed-form witness: min-eig T_1(diag(1,0)) = -e sinh(1)
    img = apply(evolve(h, 1.0), E00)
    witness = float(np.linalg.eigvalsh((img + img.conj().T) / 2)[0])
    assert witness == pytest.approx(-math.e * math.sinh(1.0), abs=1e-6)

    report = theorem1_report(h, cfg)
    assert report.by_id("semigroup_positive").verdict == "violated"

    # regression probes for the dissipation-level conditions
    d5 = dissipation(evolve(h, 1.0), E00)
    assert np.abs(d5 - (-math.e * math.sinh(1.0)) * np.eye(2)).max() <= 1e-10
    assert report.by_id("semigroup_sa").verdict == "violated"
    lam = lambda_grid(h, cfg.lambda_multipliers)[0]
    d3 = dissipation(resolvent(h, lam), E00)
    assert np.abs(d3 - (-1.0 / (lam * (lam - 2.0))) * np.eye(2)).max() <= 1e-12
    assert report.by_id("resolvent_sa").verdict == "violated"

    # 20 scaled variants: consistent, and nothing comfortably satisfied
    scales = np.linspace(0.25, 3.0, 20)
    for c in scales:
        rep_c = theorem1_report(handle(flip_nonpositive(2, scale=float(c))), cfg)
        assert rep_c.consistency_flag, c
        for cond in rep_c.conditions:
            if cond.verdict == "satisfied":
                assert cond.min_margin <= 1e-4, (c, cond.condition_id)
    print(f"\n[criterion 02] PASS negative control: witness {witness:+.9f} "
          f"matches -e*sinh(1), {len(scales)} scaled variants consistent")


def test_03_laplace_bridge():
    """Quadrature Laplace transform reproduces the algebraic resolvent."""
    for name, spec in _family_instances(seed=5).items():
        h = handle(spec)
        lam = lambda_grid(h, RunConfig().lambda_multipliers)[1]  # middle grid point
        numeric = laplace_resolvent(h, lam)
        algebraic = resolvent(h, lam)
        rel = spectral_norm(numeric.rep - algebraic.rep) / spectral_norm(algebraic.rep)
        assert rel <= 1e-6, name

    # identity at dissipation level on 20 random (instance, probe) pairs
    rng = np.random.default_rng(77)
    for i in range(20):
        n = int(rng.integers(2, 5))
        h = handle(random_lindblad(n, 2, seed=100 + i))
        a = random_hermitian(n, seed=200 + i)
        lam = lambda_grid(h, RunConfig().lambda_multipliers)[1]
        via_quad = dissipation(laplace_resolvent(h, lam), a)
        direct = dissipation(resolvent(h, lam), a)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(via_quad - direct).max() <= 1e-6 * scale, i
    print("\n[criterion 03] PASS laplace bridge: all families at mid-grid, "
          "20 dissipation pairs to 1e-6")


def test_04_euler_product_convergence():
    """First-order resolvent stepping: error halves per doubling of steps."""
    h = handle(dephasing(2))
    target = evolve(h, 1.0).rep
    errors = []
    for m in (8, 16, 32, 64):
        errors.append(spectral_norm(euler_product(h, 1.0, m).rep - target))
    ratios = [errors[i + 1] / errors[i] for i in range(3)]
    for r in ratios:
        assert 0.35 <= r <= 0.65, ratios

    # exact unitality for every unit-killing family
    eye_images = []
    for name, spec in _family_instances(seed=9).items():
        hh = handle(spec)
        img = apply(euler_product(hh, 1.0, 16), np.eye(hh.n))
        dev = float(np.abs(img - np.eye(hh.n)).max())
        eye_images.append(dev)
        assert dev <= 1e-12, name
    print(f"\n[criterion 04] PASS euler product: ratios "
          f"{[round(r, 3) for r in ratios]}, unitality worst "
          f"{max(eye_images):.2e}")


def test_05_yosida_convergence():
    """Bounded approximants: error strictly decreasing, final below 1e-2."""
    finals = []
    for i in range(20):
        h = handle(random_lindblad(2 + i % 3, 2, seed=300 + i))
        assert spectral_norm(h.generator.rep) <= 4.0 + 1e-9
        target = evolve(h, 1.0).rep
        errs = [
            spectral_norm(yosida_semigroup(h, lam, 1.0).rep - target)
            for lam in (10.0, 100.0, 1000.0)
        ]
        assert errs[0] > errs[1] > errs[2], (i, errs)
        assert errs[2] <= 1e-2, (i, errs)
        finals.append(errs[2])

        # factorization identity e^{t L_lam} = e^{-t lam} e^{lam^2 t R}
        lam = 10.0
        lhs = mat_exp(yosida_generator(h, lam).rep)
        rhs = math.exp(-lam) * mat_exp(lam * lam * resolvent(h, lam).rep)
        scale = max(1.0, float(np.abs(lhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale, i
    print(f"\n[criterion 05] PASS yosida: 20 instances strictly decreasing, "
          f"worst final error {max(finals):.2e}")


def test_06_unital_symmetric_two_directions():
    """Unital + symmetric generators: positivity certified for the CP family;
    the transpose-mixing family stays positive while measurably not CP."""
    cfg = RunConfig(samples=20)
    for i in range(20):
        h = handle(random_lindblad(2 + i % 3, 2, seed=400 + i))
        rep = theorem2_check(h, cfg.replace(seed=i))
        assert rep.unit_margin <= 1e-12, i
        assert rep.symmetry_margin <= 1e-10, i
        assert rep.positive.status == CERTIFIED_POSITIVE, i
        assert rep.unital_margin <= 1e-10, i
        assert rep.direction_consistency, i

    noncp = 0
    for i in range(20):
        spec = transpose_mixing(random_lindblad(2, 1, seed=500 + i, scale=0.5))
        h = handle(spec)
        rep = theorem2_check(h, cfg.replace(seed=i))
        assert rep.unit_margin <= 1e-12, i
        assert rep.symmetry_margin <= 1e-10, i
        assert rep.positive.status != VIOLATED, i
        assert rep.positive.margin >= -1e-9, i
        assert rep.unital_margin <= 1e-10, i
        choi_min = min(
            cp_check(evolve(h, t)).min_choi_eig for t in (0.5, 1.0, 2.0)
        )
        if choi_min <= -1e-3:
            noncp += 1
    assert noncp >= 15
    print(f"\n[criterion 06] PASS two directions: 20 CP-certified, "
          f"{noncp}/20 mixing seeds measurably non-CP")


def test_07_trace_preservation_two_sided():
    """Predual trace preservation agrees with the unit-kill margin everywhere."""
    rng = np.random.default_rng(13)
    agreements = 0
    total = 0
    for i in range(20):
        n = 2 + i % 3
        h = handle(random_lindblad(n, 2, seed=600 + i))
        states = [
            (lambda g: (g @ g.conj().T) / np.trace(g @ g.conj().T).real)(
                rand_complex(rng, n, n)
            )
            for _ in range(50)
        ]
        rep = trace_preservation_check(h, states, t_grid=(0.5, 1.0, 2.0))
        assert rep.trace_margin <= 1e-10, i
        assert rep.consistent, i
        agreements += rep.consistent
        total += 1

    # dilation control: L(x) = x scales traces and misses the unit by 1
    dilation = SemigroupHandle(Superoperator(2, np.eye(4, dtype=complex)))
    states = [np.eye(2, dtype=complex) / 2]
    rep = trace_preservation_check(dilation, states, t_grid=(0.5, 1.0, 2.0))
    assert rep.unit_margin == pytest.approx(1.0, abs=1e-12)
    assert rep.trace_margin > 1e-6
    assert rep.consistent  # both sides fail together
    agreements += rep.consistent
    total += 1
    assert agreements == total
    print(f"\n[criterion 07] PASS trace preservation: {total}/{total} two-sided "
          "agreement including the dilation control")


def test_08_structural_oracles():
    """Fixed algebraic facts the implementation must hit on the nose."""
    # transpose map: Choi matrix is the swap, least eigenvalue exactly -1
    for n in (2, 3, 4):
        w = np.linalg.eigvalsh(choi_matrix(transpose_map(n)))
        assert abs(w[0] - (-1.0)) <= 1e-10, n

    rng = np.random.default_rng(21)
    worst_h = 0.0
    worst_l = 0.0
    worst_c = 0.0
    for i in range(50):
        n = int(rng.integers(2, 5))
        hmat = rand_complex(rng, n, n)
        hmat = (hmat + hmat.conj().T) / 2
        a = rand_complex(rng, n, n)
        a = (a + a.conj().T) / 2

        # dissipation of a Hamiltonian generator vanishes
        d = dissipation(handle(lindblad(hmat, [])).generator, a)
        worst_h = max(worst_h, spectral_norm(d))
        assert worst_h <= 1e-10

        # Lindblad dissipation identity D(a) = sum_k [V_k,a]* [V_k,a]
        vs = [rand_complex(rng, n, n) for _ in range(2)]
        d = dissipation(handle(lindblad(hmat, vs)).generator, a)
        oracle = sum((v @ a - a @ v).conj().T @ (v @ a - a @ v) for v in vs)
        worst_l = max(worst_l, float(np.abs(d - oracle).max()))
        assert worst_l <= 1e-10

        # conjugation semigroups: D_t(a) = (T_t(a) - a)^2
        h = handle(lindblad(hmat, []))
        t = 0.7
        d = dissipation(evolve(h, t), a)
        u = mat_exp(1j * t * hmat)
        ta = u @ a @ u.conj().T
        worst_c = max(worst_c, float(np.abs(d - (ta - a) @ (ta - a)).max()))
        assert worst_c <= 1e-12
    print(f"\n[criterion 08] PASS structural oracles: swap spectrum exact, "
          f"hamiltonian {worst_h:.1e}, lindblad {worst_l:.1e}, "
          f"conjugation {worst_c:.1e}")


def test_09_fuzz_determinism(tmp_path):
    """Seeded fuzz output is byte-identical across runs."""
    args = ["fuzz", "lindblad", "6", "-n", "3", "--samples", "10", "--seed", "11"]
    paths = [str(tmp_path / f"run{i}.json") for i in range(2)]
    assert main(args + ["-o", paths[0]]) == 0
    assert main(args + ["-o", paths[1]]) == 0
    blobs = [open(p, "rb").read() for p in paths]
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["inconsistencies"] == 0
    print(f"\n[criterion 09] PASS determinism: {len(blobs[0])} bytes identical "
          "across two runs")
