import numpy as np
import pytest

from posgen import criteria, superop
from posgen.semigroup import lindblad_rep

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # lowering operator


@pytest.fixture
def paulis():
    return SX, SY, SZ


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def signed_rate_rep(seed):
    """Generator ``seed`` of the signed-rate sweep on M(2): sum_k c_k D_{A_k}.

    Three rates c_k, uniform on [-0.4, 1.0), are drawn before the jump
    operators A_k, complex Gaussians divided by 2; D_A is the dissipator of A
    with no Hamiltonian (scripts/signed_rate_sweep.py builds the same set).
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-0.4, 1.0, 3)
    jumps = [rand_complex(rng, 2, 2) / 2 for _ in rates]
    return sum(c * lindblad_rep(np.zeros((2, 2)), [a]) for c, a in zip(rates, jumps))


@pytest.fixture
def cone_searches(monkeypatch):
    """The number of maps of each positivity_checks call the criteria make."""
    searched = []
    search = criteria.positivity_checks

    def count(maps, seeds, tol):
        maps = list(maps)
        searched.append(len(maps))
        return search(maps, seeds, tol)

    monkeypatch.setattr(criteria, "positivity_checks", count)
    return searched


def spectral_ratios(s_out, s_in):
    """||S(x)|| / ||x|| of a batch from its spectral norms; 0 for a negligible x."""
    ok = s_in > 1e-12 * max(1.0, float(s_in.max(initial=0.0)))
    return np.where(ok, s_out / np.where(ok, s_in, 1.0), 0.0)


def full_contraction_search(s, seed=0, tol=1e-9):
    """Reference: the contraction search with no stop before its ascent.

    Scores the unit, 64 seeded Gaussians and the rep's top singular
    directions, tests the Russo-Dye certificate, then climbs 30 steps of a
    power ascent from the best four whatever the sampled bound.  Each step
    reads the ratio of its inputs from its own SVD of their images.  Returns
    the largest sampled ratio and the verdict.
    """
    n = s.n
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    gauss = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    _, _, vh = np.linalg.svd(s.rep)
    tops = vh[: min(3, len(vh))].conj().reshape(-1, n, n).swapaxes(1, 2)
    xs = np.concatenate(
        [np.eye(n, dtype=complex)[None], gauss, tops, (tops + tops.conj().transpose(0, 2, 1)) / 2]
    )

    def norms(x):
        return np.linalg.svd(x, compute_uv=False)[:, 0]

    ratios = spectral_ratios(norms(superop.apply_stack(s.rep.T, xs)), norms(xs))
    sampled = bound = float(np.max(ratios))
    if (
        superop.is_symmetric_map(s, tol).verdict
        and superop.is_unital(s, tol).verdict
        and superop.cp_check(s, tol).verdict
        and bound <= 1.0 + tol
    ):
        return sampled, superop.ContractionVerdict("certified_contraction", bound)
    v = xs[np.argsort(ratios)[::-1][:4]].copy()
    v /= np.linalg.norm(v, axis=(1, 2), keepdims=True)
    for _ in range(30):
        u, sv, wh = np.linalg.svd(superop.apply_stack(s.rep.T, v))
        bound = max(bound, float(np.max(spectral_ratios(sv[:, 0], norms(v)))))
        v = superop.apply_stack(s.rep.conj(), u[:, :, :1] @ wh[:, :1, :])
        v_norms = np.linalg.norm(v, axis=(1, 2), keepdims=True)
        v_norms[v_norms == 0] = 1.0
        v /= v_norms
    status = "violated" if bound > 1.0 + tol else "no_violation_found"
    return sampled, superop.ContractionVerdict(status, bound)
