"""Exact oracle: known chromatic values and budget behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor.conflict import validate
from planecolor.errors import BadArgument
from planecolor.exact_solver import (
    INFEASIBLE,
    UNKNOWN,
    chi2_exact,
    color_with_k,
)
from planecolor.generators import named, random_plane

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("k1", 1),
        ("k2", 2),
        ("k4", 4),  # square is K4
        ("c5", 5),  # square is K5
        ("c6", 3),  # antipodal pairs are the color classes
        ("star5", 6),  # square is K6
    ],
)
def test_known_values(name, expected):
    assert chi2_exact(named(name)) == expected


def test_icosahedron_is_six():
    # the square of the icosahedron pairs each vertex with everything
    # except its antipode: a 6-partition into antipodal pairs
    g = named("icosahedron")
    assert chi2_exact(g) == 6
    for v in range(g.n):
        assert g.d2(v) == 10


def test_cube_value():
    # square of the cube is K8 minus the antipodal matching
    assert chi2_exact(named("cube")) == 4


def test_infeasible_below_clique():
    g = named("c5")
    assert color_with_k(g, 4) is INFEASIBLE


def test_solution_is_validated():
    g = named("dodecahedron")
    col = color_with_k(g, 16)
    assert col is not INFEASIBLE and col is not UNKNOWN
    assert validate(g, col).valid
    assert col.colors[0] == 1  # first vertex pinned


def test_palette_past_n_is_searched_as_n():
    # a palette of k >= n never empties a domain, so the search stops at
    # n colors: no domain of 2**k bits is built
    g = named("icosahedron")
    wide = color_with_k(g, 10**12)
    assert wide.palette == 10**12
    assert wide.colors == color_with_k(g, g.n).colors


def test_unknown_on_tiny_budget():
    g = random_plane(150, seed=3)
    result = color_with_k(g, 8, budget=5)
    assert result is UNKNOWN or result is INFEASIBLE


def test_chi2_respects_budget():
    g = random_plane(150, seed=3)
    assert chi2_exact(g, budget=2) is UNKNOWN


def test_palette_size_must_be_an_int():
    with pytest.raises(BadArgument):
        color_with_k(named("k4"), 1.5)


def test_palette_size_is_not_a_bool():
    # True would otherwise run as k = 1
    with pytest.raises(BadArgument):
        color_with_k(named("k4"), True)


@pytest.mark.parametrize("name", ["k1", "k4"])
def test_budget_must_be_an_int(name):
    # k1 is answered before any search, so the check comes first
    with pytest.raises(BadArgument):
        chi2_exact(named(name), budget="x")


class TestSolverProperties:
    @PROPERTY_SETTINGS
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=999))
    def test_chi2_within_16_small(self, n, seed):
        g = random_plane(n, seed=seed)
        value = chi2_exact(g, budget=2_000_000)
        if value is not UNKNOWN:
            assert 1 <= value <= 16
            assert value >= max(g.deg) + 1 if g.n > 1 else True

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=999))
    def test_found_coloring_valid_and_minimal_step(self, n, seed):
        g = random_plane(n, seed=seed)
        value = chi2_exact(g, budget=2_000_000)
        if value is UNKNOWN or value <= 1:
            return
        col = color_with_k(g, value, budget=2_000_000)
        assert validate(g, col).valid
        below = color_with_k(g, value - 1, budget=2_000_000)
        assert below is INFEASIBLE or below is UNKNOWN
