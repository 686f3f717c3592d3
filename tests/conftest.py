import numpy as np
import pytest

from posgen import criteria

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # lowering operator


@pytest.fixture
def paulis():
    return SX, SY, SZ


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
