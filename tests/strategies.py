"""Shared hypothesis strategies producing exact-arithmetic test data."""

import os
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, settings

from latmin import Box, Ellipsoid, HPolytope, Lattice, Matrix

MAX_ENTRY = 3


def suite_settings(max_examples: int, **kwargs) -> settings:
    """``settings(max_examples=max_examples, **kwargs)`` under the ``suite``
    profile that ``conftest.py`` loads by default.  An explicit count
    overrides the loaded profile, so under any other profile, such as
    ``thorough``, the cap is left out and the profile's count applies."""
    if os.environ.get("HYPOTHESIS_PROFILE", "suite") == "suite":
        kwargs["max_examples"] = max_examples
    return settings(**kwargs)


def positive_fractions(max_num: int = 4, max_den: int = 4):
    return st.builds(Fraction, st.integers(1, max_num),
                     st.integers(1, max_den))


def rationals(bound: int = 6, max_den: int = 4):
    return st.builds(Fraction, st.integers(-bound, bound),
                     st.integers(1, max_den))


def int_points(dim: int, bound: int = 4):
    return st.lists(st.integers(-bound, bound),
                    min_size=dim, max_size=dim).map(tuple)


def int_matrices(dim: int, bound: int = MAX_ENTRY):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim),
        min_size=dim, max_size=dim).map(Matrix.from_rows)


def nonsingular_int_matrices(dim: int, bound: int = MAX_ENTRY):
    return int_matrices(dim, bound).filter(lambda m: m.det() != 0)


def boxes(dim: int, max_num: int = 4, max_den: int = 4):
    return st.lists(positive_fractions(max_num, max_den),
                    min_size=dim, max_size=dim).map(lambda ws: Box(tuple(ws)))


@st.composite
def hpolytopes(draw, dim: int, bound: int = MAX_ENTRY, extra: int = 2):
    """Polytopes of ``dim`` to ``dim + extra`` integer normals."""
    nrows = draw(st.integers(dim, dim + extra))
    rows = draw(st.lists(
        st.lists(st.integers(-bound, bound), min_size=dim,
                 max_size=dim).filter(any),
        min_size=nrows, max_size=nrows))
    m = Matrix.from_rows(rows)
    assume(m.rank() == dim)
    return HPolytope(m)


@st.composite
def ellipsoids(draw, dim: int, bound: int = MAX_ENTRY):
    factor = draw(nonsingular_int_matrices(dim, bound))
    return Ellipsoid(factor.transpose() @ factor)


def bodies(dim: int, small: bool = False):
    if small:
        return st.one_of(boxes(dim, max_num=2, max_den=3),
                         hpolytopes(dim, bound=2), ellipsoids(dim, bound=2))
    return st.one_of(boxes(dim), hpolytopes(dim), ellipsoids(dim))


@st.composite
def lattices(draw, dim: int):
    kind = draw(st.sampled_from(("identity", "diagonal", "sheared")))
    if kind == "identity":
        return Lattice.standard(dim)
    diag = Matrix.diagonal([draw(positive_fractions(3, 3))
                            for _ in range(dim)])
    if kind == "diagonal":
        return Lattice(diag)
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(dim):
        i = draw(st.integers(0, dim - 1))
        j = draw(st.integers(0, dim - 1))
        if i != j:
            s = draw(st.sampled_from((-1, 1)))
            u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    return Lattice(Matrix.from_rows(u) @ diag)


@st.composite
def instances(draw, max_dim: int = 3, small: bool = False):
    dim = draw(st.integers(1, max_dim))
    return draw(bodies(dim, small=small)), draw(lattices(dim))


def shear_unimodulars(dim: int):
    """Unimodular integer matrices as products of ``2 * dim`` elementary
    shears ``row_i += s * row_j``, the way the fuzz generator builds its
    sheared lattices."""
    shear = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                      st.sampled_from((-1, 1)))

    def build(shears):
        u = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for i, j, s in shears:
            if i != j:
                u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        return Matrix.from_rows(u)

    return st.lists(shear, min_size=2 * dim, max_size=2 * dim).map(build)
