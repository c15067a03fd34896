import os

import numpy as np
import pytest

from dulab import qinfo
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


def blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, from
    ``qinfo._openblas()``; skips the test when numpy bundles none."""
    lib = qinfo._openblas()
    if lib is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_


def checkout_env(**extra):
    """The environment plus ``extra``, with the ``src`` directory of the
    dulab under test first on PYTHONPATH, so a subprocess imports it too."""
    import dulab

    src = os.path.dirname(os.path.dirname(dulab.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
