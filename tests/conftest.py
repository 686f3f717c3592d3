import numpy as np
import pytest

from posgen import criteria
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
