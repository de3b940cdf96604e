"""Build the fixed-degree series tables of ``twinfocal.specfun``.

Run from the repository root::

    python scripts/make_specfun_tables.py

It prints the ``_SERIES`` table as a Python literal, ready to paste into
``src/twinfocal/specfun.py``, followed by the magnitude sum of each
series row and the worst absolute error of each branch against the
60-digit reference over [0, 50].  A tier-1 test reruns ``build_tables``
and checks that it reproduces the committed table exactly.

Series branch, ``|x| <= 12``.  With ``q = x^2/4`` both functions are
``1 + q g_n(q)``: ``J0(x)`` for ``n = 0`` and ``2 J1(x)/x`` for ``n = 1``.
``g_n`` is entire in ``q``; its Chebyshev coefficients in
``t = q/18 - 1 = x^2/72 - 1`` come from interpolation at
``_NODES`` Chebyshev points and are cut at degree ``SERIES_DEGREE``.  The
node values take no cancellation: Neumann's series ``1 = J0 + 2 sum J_2k``
gives ``1 - J0 = 2 sum_{k>=1} J_2k`` and
``1 - 2 J1/x = J2 + 2 sum_{k>=2} J_2k``, sums of the reference
``J_2k`` that are accurate relative to ``q`` even near ``q = 0``.  The
committed table is that Chebyshev polynomial in the power basis of ``t``,
for Horner's rule: each rounded Chebyshev coefficient is expanded in
exact rationals and every power coefficient is rounded once.  The power
basis is well conditioned on ``|t| <= 1``: its coefficients sum to 1.06
in magnitude for ``n = 0`` and 0.50 for ``n = 1``.

The Hankel branch, ``|x| > 12``, needs no reference: ``specfun``
computes its coefficients at import from their exact integer ratios.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import reference_jn  # noqa: E402

# The Chebyshev coefficients of g_n fall to about 3e-17 by degree 18, the
# noise level of double-precision node values: more terms add noise, not
# accuracy.
SERIES_DEGREE = 18
_NODES = 48
_NEUMANN_FLOOR = 1e-40


def _one_minus(n: int, x: float) -> float:
    """``1 - J0(x)`` (n = 0) or ``1 - 2 J1(x)/x`` (n = 1) by Neumann's series."""
    terms = [reference_jn(2, x)] if n == 1 else []
    k = 2 if n == 1 else 1
    while True:
        term = 2.0 * reference_jn(2 * k, x)
        terms.append(term)
        if 2 * k > x and abs(term) < _NEUMANN_FLOOR:
            return math.fsum(terms)
        k += 1


def _chebyshev_table(n: int) -> tuple[float, ...]:
    # g_n(q) = (f_n - 1)/q at the Chebyshev points t_j = cos(pi (2j + 1)/(2N)).
    # cos(k theta_j) is taken at the angle reduced in integers first: a
    # rounded k * theta_j would put errors of k * 1e-16 into the coefficients.
    def cos_pi(m: int) -> float:  # cos(pi m / (2N))
        return math.cos(math.pi * (m % (4 * _NODES)) / (2 * _NODES))

    values = []
    for j in range(_NODES):
        q = 18.0 * (1.0 + cos_pi(2 * j + 1))
        values.append(-_one_minus(n, 2.0 * math.sqrt(q)) / q)
    coeffs = []
    for k in range(SERIES_DEGREE + 1):
        c = 2.0 / _NODES * math.fsum(v * cos_pi(k * (2 * j + 1)) for j, v in enumerate(values))
        coeffs.append(0.5 * c if k == 0 else c)
    return tuple(coeffs)


def _series_table(n: int) -> tuple[float, ...]:
    # sum_k c_k T_k(t) in powers of t, with T_(k+1) = 2 t T_k - T_(k-1) on
    # integer coefficients: exact until the one rounding of each sum.
    coeffs = _chebyshev_table(n)
    power = [Fraction(coeffs[0])] + [Fraction(0)] * SERIES_DEGREE
    prev, cheb = [1], [0, 1]  # T_(k-1) and T_k, lowest power first
    for c in coeffs[1:]:
        for i, m in enumerate(cheb):
            power[i] += Fraction(c) * m
        step = [0] + [2 * m for m in cheb]
        for i, m in enumerate(prev):
            step[i] -= m
        prev, cheb = cheb, step
    return tuple(float(a) for a in power)


def build_tables() -> tuple[tuple[float, ...], ...]:
    """``specfun._SERIES``: the series table, indexed by n."""
    return tuple(_series_table(n) for n in (0, 1))


def _literal(name: str, table: tuple) -> str:
    lines = [f"{name} = ("]
    for n, row in enumerate(table):
        lines.append(f"    (  # n = {n}")
        lines.extend(f"        {c!r}," for c in row)
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def _branch_errors() -> list[str]:
    from twinfocal.specfun import airy_amp, bessel_j0, bessel_j1

    xs = np.linspace(0.0, 50.0, 2001)
    xs = np.concatenate([xs, [np.nextafter(12.0, 0.0), 12.0, np.nextafter(12.0, 13.0)]])
    lines = []
    for name, fn, ref in (
        ("J0", bessel_j0, lambda x: reference_jn(0, x)),
        ("J1", bessel_j1, lambda x: reference_jn(1, x)),
        ("2 J1(x)/x", airy_amp, lambda x: 2.0 * reference_jn(1, x) / x if x else 1.0),
    ):
        err = np.abs(fn(xs) - np.array([ref(float(x)) for x in xs]))
        lo = xs <= 12.0
        lines.append(f"# {name}: series {err[lo].max():.1e}, Hankel {err[~lo].max():.1e}")
    return lines


def main() -> None:
    table = build_tables()
    print(_literal("_SERIES", table))
    for n, row in enumerate(table):
        print(f"# _SERIES[{n}]: sum |a_k| = {math.fsum(abs(a) for a in row):.3f}")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print("\n".join(_branch_errors()))


if __name__ == "__main__":
    main()
