import numpy as np
import pytest

import msumma as ms
from msumma import moments


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty moment-table dict for one test; the process-wide one, with
    whatever earlier tests built into it, is put back afterwards."""
    tables = {}
    monkeypatch.setattr(moments, "_tables", tables)
    return tables


def random_series(rng, kappa=1, n=40, complex_valued=True):
    c = rng.normal(size=n)
    if complex_valued:
        c = c + 1j * rng.normal(size=n)
    return ms.RamifiedSeries.from_complex(kappa, c)


def biseries_to_array(u):
    return np.array([[u.coeff(j, n).to_complex()
                      for n in range(u.trunc_z + 1)]
                     for j in range(u.trunc_t + 1)])


def cross_solver_deviation(prob):
    """Relative coefficient gap between the two independent solvers."""
    u1 = ms.solve_constant_leading(prob)
    u2 = ms.sum_pieces(ms.decompose(prob))
    nt = min(u1.trunc_t, u2.trunc_t)
    nz = min(u1.trunc_z, u2.trunc_z)
    a = biseries_to_array(u1.truncate_to(nt, nz))
    b = biseries_to_array(u2.truncate_to(nt, nz))
    return float(np.abs(a - b).max() / max(1.0, np.abs(a).max()))
