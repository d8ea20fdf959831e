"""List-based exact simplex, kept as a reference.

This is ``pdmg.matrix_game._exact_simplex_max`` as it was before the exact
solve ran the float solver's pivot loop over an object array of Fractions:
its own copy of Bland's rule (Bland 1977, *New finite pivoting rules for
the simplex method*) over Python lists of Fractions.  ``test_exact_lp.py``
requires the two to return the same Fractions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from pdmg.matrix_game import MatrixGameError


def exact_simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Maximise c.x subject to A x <= b, x >= 0 with b >= 0, in exact
    rational arithmetic (floats are dyadic rationals), Bland's rule
    throughout.  Returns (x, duals, objective) as Fractions."""
    m, n = A.shape
    width = n + m + 1
    tab = [[Fraction(0)] * width for _ in range(m + 1)]
    for i in range(m):
        for j in range(n):
            tab[i][j] = Fraction(float(A[i, j]))
        tab[i][n + i] = Fraction(1)
        tab[i][-1] = Fraction(float(b[i]))
    for j in range(n):
        tab[m][j] = Fraction(float(c[j]))
    basis = list(range(n, n + m))

    for _ in range(1_000_000):
        enter = -1
        for j in range(n + m):
            if tab[m][j] > 0:
                enter = j
                break
        if enter < 0:
            break
        best, leave = None, -1
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            raise MatrixGameError("LP unbounded (shifted game should be bounded)")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        row_l = tab[leave]
        for i in range(m + 1):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], row_l)]
        basis[leave] = enter
    else:
        raise MatrixGameError("exact simplex failed to terminate")

    x = [Fraction(0)] * (n + m)
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    duals = [-tab[m][n + i] for i in range(m)]
    obj = -tab[m][-1]
    return x[:n], duals, obj
