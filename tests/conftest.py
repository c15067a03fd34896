import numpy as np
import pytest

from dulab.qinfo import DensityMatrix, PureState


def random_density(dims, rank=None, seed=0):
    """Ginibre-induced random density matrix of the given rank."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def random_pure(dims, seed=0):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), dims)


def chain_sites(state: PureState) -> list:
    """Site tensors (chi_l, d, chi_r) with unit outer bonds of a dense state,
    split by sequential QR from the left; the last site holds the norm."""
    sites, rest = [], state.amplitudes.reshape(1, -1)
    for d in state.dims[:-1]:
        q, r = np.linalg.qr(rest.reshape(rest.shape[0] * d, -1))
        sites.append(q.reshape(rest.shape[0], d, -1))
        rest = r
    sites.append(rest.reshape(-1, state.dims[-1], 1))
    return sites


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
