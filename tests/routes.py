"""The two routes to one real rotation column, for tests that check both.

A grid rotates every column it needs from one factorization of the
sector generator; a single point solves for its one column as an
eigenvector.  Both take (total, col, beta) and return column `col` of
the real rotation d(beta) at total = 2j.
"""

from __future__ import annotations

import functools

import pytest

from bsteleport.numerics import _column, _factor, _rotate, _trig

factored = functools.lru_cache(maxsize=None)(_factor)


def rotated_column(factor, col: int, beta):
    """Real column `col` of d(beta), shape beta.shape + (dim,), by the grid kernel from a factorization."""
    return _rotate(factor, col, _trig(factor, beta))


def grid_column(total: int, col: int, beta: float):
    """Column by the grid kernel, from one cached factorization per total."""
    return rotated_column(factored(total), col, beta)


ROUTES = {"grid": grid_column, "point": _column}


def over_routes(argnames: str, cases: dict):
    """Parametrize a test over both routes and every case.

    argnames names the route argument first, then the case's values;
    a case keeps its own id on the grid route and gains a "point-"
    prefix on the point route.
    """
    return pytest.mark.parametrize(argnames, [
        pytest.param(column, *values, id=key if name == "grid" else f"point-{key}")
        for name, column in ROUTES.items() for key, values in cases.items()])
