import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra
from opteleport.inclusion import (
    Inclusion,
    diagonal_in_full,
    homogeneous_in_full,
    markov_inclusion,
    trivial_in_full,
)
from opteleport.reporting import Report
from opteleport.tower import Tower, basic_construction, iterate


def make_inclusion(key: str) -> Inclusion:
    if key.startswith("trivial_in_full_"):
        return trivial_in_full(int(key.rsplit("_", 1)[1]))
    if key.startswith("diagonal_in_full_"):
        return diagonal_in_full(int(key.rsplit("_", 1)[1]))
    if key == "homogeneous_2_2":
        return homogeneous_in_full(2, 2)
    if key == "scalars_in_direct_sum":
        big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
        return markov_inclusion(StarAlgebra.trivial(3), big)
    if key == "golden":
        # C + C inside C + M_2 with Bratteli matrix [[1, 0], [1, 1]]: index 2.618...,
        # so the Markov trace has a non-uniform density at every level
        big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
        return markov_inclusion(StarAlgebra.block_diagonal([(1, 2), (1, 1)]), big)
    raise KeyError(key)


TOWER_KEYS = [
    "trivial_in_full_2",
    "trivial_in_full_3",
    "diagonal_in_full_2",
    "diagonal_in_full_3",
    "homogeneous_2_2",
    "scalars_in_direct_sum",
]

def dense_commutation_gap(a: StarAlgebra, b: StarAlgebra) -> float:
    """Oracle: the largest distance to the dense span of a' of the generators
    of b, its units f_a0 and their adjoints f_0a."""
    gens = [f[p][0] for f in b.matrix_units for p in range(len(f))]
    gens += [la.dagger(g) for g in gens]
    return max(la.span_residual(a.commutant.basis, g) for g in gens)


def record_thresholds(monkeypatch) -> dict[str, float]:
    """Patch ``Report.add`` to record the threshold of every check by name."""
    seen: dict[str, float] = {}
    add = Report.add

    def recording(self, name, residual, threshold, detail=None):
        seen[name] = threshold
        return add(self, name, residual, threshold, detail)

    monkeypatch.setattr(Report, "add", recording)
    return seen


_tower_cache: dict[str, Tower] = {}


def get_tower(key: str, two_levels: bool = True) -> Tower:
    if key not in _tower_cache:
        _tower_cache[key] = basic_construction(make_inclusion(key))
    t = _tower_cache[key]
    if two_levels:
        iterate(t)
    return t


@pytest.fixture(scope="session")
def tower_factory():
    return get_tower
