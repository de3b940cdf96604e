"""Self-contained Bessel functions of the first kind and the Airy amplitude.

Everything downstream (the point spread functions and the coincidence
kernel) reduces to J0 and J1 of real argument, so the accuracy budget of
the whole model is set here.  The functions are evaluated from
scratch rather than delegated to an external special-function library,
at a fixed degree, so every value depends on its own argument alone:

* ``|x| <= 12``: with ``q = x^2/4``, ``J0(x) = 1 + q g_0(q)`` and
  ``2 J1(x)/x = 1 + q g_1(q)``, where ``g_n`` is a degree-18 polynomial
  in ``t = x^2/72 - 1`` evaluated by Horner's rule.  It is the Chebyshev
  interpolant of ``g_n`` converted exactly to the power basis of ``t``,
  whose coefficients sum to 1.06 (n = 0) and 0.50 (n = 1) in magnitude,
  so Horner's rule on ``|t| <= 1`` stays well conditioned.  The form
  keeps ``airy_amp(0) == 1`` exact and ``airy_amp <= 1`` near 0.
* ``|x| > 12``: Hankel's expansion
  ``J_n(x) = sqrt(2/(pi x)) [cos(w) P - sin(w) Q]``,
  ``w = x - (n/2 + 1/4) pi``, where ``P`` and ``x Q`` are polynomials in
  ``1/x^2`` (Horner's rule) that keep the terms up to ``1/x^24``.  At
  ``x = 12`` the smallest term is of order 24 or 25, so the truncation
  error is largest at the switchover and falls off beyond it.  Both
  trigonometric factors come from one tangent, ``t = tan(w/2)``, by the
  exact half-angle identities ``cos w = (1 - t^2)/(1 + t^2)`` and
  ``sin w = 2 t/(1 + t^2)``: one trig call per point instead of two.
  With numpy 2.4 on an AVX-512 CPU, ``tan`` costs about 2.5 ns per
  point and ``sin`` plus ``cos`` 30-55 ns; where numpy falls back to
  the C library's ``tan`` it is still one call, not two.  At the poles of
  ``t`` (``w`` an odd multiple of pi) ``t`` stays finite in floating
  point and the identities hold to rounding, so no point needs a
  second form.

The series tables are written by ``scripts/make_specfun_tables.py``
from the 60-digit reference of the test suite.  The Hankel coefficients
are computed at import, each rounded once from its exact integer ratio.
Measured against that reference on 2001 points of [0, 50] plus 12 and
the doubles on either side of it, the largest absolute errors are

    ============  ==========  ==========
    function      ``<= 12``   ``> 12``
    ============  ==========  ==========
    J0            1.3e-14     8.2e-13
    J1            5.5e-14     5.4e-13
    2 J1(x)/x     9.2e-15     9.1e-14
    ============  ==========  ==========

and both Hankel maxima sit at the first double above 12.  J0 is also
measured from 50 to 1e5, the largest argument a grating's twin transfer
values reach (``coincidence._MAX_BESSEL_ARG``), on 2001 geometrically
spaced points, against Hankel's expansion summed to 1e-40 in 60-digit
decimals: the largest error there is 2.0e-14.

All functions accept floats or numpy arrays and return the matching kind.
An array is split between the branches by a boolean mask (gathered by
indexing, scattered back by masked assignment), and not at all when one
branch covers it.  Each branch computes in place, in arrays taken from
the calling thread's ``Workspace``, which allocates them unless a scan
pass has made a buffered one current.  ``airy_amp`` writes its values
into ``out`` when given one, which may be its argument; otherwise no
argument is written.  A value depends on its own argument alone.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["bessel_j0", "bessel_j1", "airy_amp"]

# Branch switchover: polynomial in t below, Hankel expansion above.
_SERIES_CUTOFF = 12.0

# _SERIES[n]: power-basis coefficients of g_n in t = x^2/72 - 1, written by
# scripts/make_specfun_tables.py.
_SERIES = (
    (  # n = 0
        -0.053002331904983484,
        -0.011332200242488698,
        0.02052045346108097,
        0.1663576408356167,
        -0.3202985913861522,
        0.2752610669593338,
        -0.14536522627206264,
        0.053327730439552426,
        -0.014547156099315377,
        0.003084908409468578,
        -0.0005250003380865103,
        7.345175215695461e-05,
        -8.610615778765613e-06,
        8.589460600560983e-07,
        -7.381133945472156e-08,
        5.527245328096342e-09,
        -3.875557543034586e-10,
        2.3010926497590845e-11,
        4.149569576838985e-12,
    ),
    (  # n = 1
        -0.05198141488069601,
        0.05096049785640852,
        -0.08210684690585472,
        0.11631594702816514,
        -0.10380552357636938,
        0.060506910014432584,
        -0.02471455052286374,
        0.0074787397015644306,
        -0.0017476158636273438,
        0.00032544472521934864,
        -4.949834286451426e-05,
        6.270894707209132e-06,
        -6.725161951004796e-07,
        6.187873402563326e-08,
        -4.916743355909943e-09,
        3.419748928479293e-10,
        -3.4527480196108796e-11,
        2.1026143789034295e-12,
        3.0505968121966967e-12,
    ),
)

# Hankel's coefficients for J_n (Abramowitz & Stegun 9.2.5, 9.2.9-10):
# a_k = prod_{i<=k} (4 n^2 - (2i - 1)^2) / (8 i), each rounded once from its
# exact integer ratio.  P = sum_j (-1)^j a_2j / x^2j and
# x Q = sum_j (-1)^j a_(2j+1) / x^2j, so a_k is added where k % 4 < 2.
# Smallest Hankel term at x = 12: k = 24 for n = 0 and k = 25 for n = 1
# (about 6e-12 before the 0.23 prefactor).  Of the orders 22 to 26, 24
# gives the smallest worst error at the switchover (8.2e-13, J0).
_HANKEL_ORDER = 24


def _hankel_tables(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The coefficients of ``P`` and ``x Q`` in ``1/x^2`` for ``J_n``."""
    num = den = 1
    signed = [1.0]
    for k in range(1, _HANKEL_ORDER + 1):
        num *= 4 * n * n - (2 * k - 1) ** 2
        den *= 8 * k
        signed.append(num / den if k % 4 < 2 else -num / den)
    return tuple(signed[0::2]), tuple(signed[1::2])


# _HANKEL_P[n], _HANKEL_Q[n]: the coefficients of P and x Q for J_n.
_HANKEL_P, _HANKEL_Q = zip(*(_hankel_tables(n) for n in (0, 1)))


# ============================================================================
# workspaces
# ============================================================================

class Workspace:
    """Scratch arrays carved, in order, from one byte buffer allocated up front.

    Inside ``with work.use():`` it is the calling thread's workspace:
    ``airy_amp``, ``psf.kernel_field`` and the classical
    ``psf_*`` responses take the arrays whose size scales with their
    argument from it (``_workspace().out``) instead of allocating them,
    so calls that follow one another reuse the same memory.  A result
    taken from it stays valid until the workspace is cleared.  ``held``
    counts the bytes handed out; setting it back to an earlier count gives
    back every array handed out since.  Once the buffer is full, ``out``
    leaves the allocation to numpy, so a workspace without a buffer, every
    thread's workspace outside ``use``, allocates every array as numpy
    would.
    """

    def __init__(self, buffer: np.ndarray | None = None):
        self._buffer = np.empty(0, dtype=np.uint8) if buffer is None else buffer
        self.held = 0

    def out(self, *operands: np.ndarray, dtype=float) -> np.ndarray | None:
        """An uninitialised array of the operands' broadcast shape, 64-byte
        aligned within the buffer, to pass as a ufunc's ``out``; None, so
        that numpy allocates, without a buffer or once it is full."""
        if not self._buffer.size:
            return None
        shape = operands[0].shape if len(operands) == 1 else \
            np.broadcast_shapes(*(a.shape for a in operands))
        dtype = np.dtype(dtype)
        start = -(-self.held // 64) * 64
        end = start + math.prod(shape) * dtype.itemsize
        if end > self._buffer.size:
            return None
        self.held = end
        return np.ndarray(shape, dtype, self._buffer, start)

    def clear(self) -> None:
        self.held = 0

    @contextmanager
    def use(self):
        outer, _current.work = _current.work, self
        try:
            yield self
        finally:
            _current.work = outer


class _Current(threading.local):
    work = Workspace()


_current = _Current()


def _workspace() -> Workspace:
    """The calling thread's workspace (see ``Workspace``)."""
    return _current.work


# ============================================================================
# evaluation (internal)
# ============================================================================

def _reduced(n: int, x, out: np.ndarray | None = None) -> np.ndarray:
    """``J0(|x|)`` for n = 0, ``2 J1(|x|)/|x|`` for n = 1, as an array: in
    ``out`` (which may be ``x``) or one taken from the thread's workspace,
    which gets its other arrays back."""
    work = _workspace()
    x = np.asarray(x, dtype=float)
    if out is not None and not (out.dtype == float and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array")
    ax = np.abs(x, out=work.out(x) if out is None else out)
    # |x| >= 0, so its maximum is finite exactly when every element is (NaN propagates)
    if ax.size and not np.isfinite(ax.max()):
        raise ValueError("bessel argument must be finite")
    flat = ax.reshape(-1)  # a view of ax, unless ax is a scalar or not in C order
    held = work.held
    large = np.greater(flat, _SERIES_CUTOFF, out=work.out(flat, dtype=bool))
    count = np.count_nonzero(large)
    if count == 0:
        _series(n, flat, work, work.out(flat))
    elif count == flat.size:
        _hankel(n, flat, work, work.out(flat))
    else:  # gather each branch's points; ``flat`` is scratch until they go back
        above = flat[large]
        small = np.logical_not(large, out=large)
        below = flat[small]
        _series(n, below, work, flat[:below.size])
        _hankel(n, above, work, flat[:above.size])
        flat[small] = below
        flat[np.logical_not(small, out=small)] = above
    work.held = held  # give the scratch arrays back
    return flat.reshape(ax.shape) if out is None else out


def _series(n: int, a: np.ndarray, work: Workspace, scratch: np.ndarray) -> np.ndarray:
    """``1 + q g_n(q)``, ``q = a^2/4``, for ``0 <= a <= 12``, in ``a``;
    ``scratch`` is a free array of its shape."""
    q = np.multiply(a, a, out=a)
    q *= 0.25
    t = np.divide(q, 18.0, out=scratch)
    t -= 1.0
    acc = _horner(_SERIES[n], t, work.out(a))
    np.multiply(acc, q, out=q)
    q += 1.0
    return q


def _hankel(n: int, a: np.ndarray, work: Workspace, scratch: np.ndarray) -> np.ndarray:
    """``J_n(a)``, divided by ``a/2`` for n = 1, by Hankel's expansion, for
    ``a > 12``, in ``a``; ``scratch`` is a free array of its shape."""
    y = np.multiply(a, a, out=scratch)
    np.divide(1.0, y, out=y)
    p = _horner(_HANKEL_P[n], y, work.out(a))
    qa = _horner(_HANKEL_Q[n], y, work.out(a))
    qa /= a
    # cos(w) P - sin(w) Q from the one tangent t = tan(w/2)
    t = np.subtract(a, (0.5 * n + 0.25) * np.pi, out=y)
    t *= 0.5
    np.tan(t, out=t)
    qa *= t
    qa *= 2.0
    tt = np.multiply(t, t, out=t)
    p *= np.subtract(1.0, tt, out=work.out(a))
    p -= qa
    tt += 1.0
    p /= tt
    # times sqrt(2/(pi a))
    root = np.multiply(a, np.pi, out=qa)
    np.divide(2.0, root, out=root)
    np.sqrt(root, out=root)
    if n == 0:
        return np.multiply(p, root, out=a)
    p *= root
    p *= 2.0
    return np.divide(p, a, out=a)


def _horner(coeffs: tuple[float, ...], y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k] y^k``, by Horner's rule, in ``out``."""
    acc = np.multiply(y, coeffs[-1], out=out)
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= y
        acc += c
    return acc


# ============================================================================
# public API
# ============================================================================

def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Parameters
    ----------
    x : float or ndarray
        Finite real argument.

    Returns
    -------
    float or ndarray
        J0(x).  Even in ``x`` exactly: the sign is dropped before
        evaluation.  Absolute error <= 1e-12 for ``|x| <= 1e5``.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    out = _reduced(0, x)
    return float(out) if scalar else out


def bessel_j1(x):
    """Bessel function of the first kind, order one.

    Odd symmetry J1(-x) = -J1(x) holds exactly by construction: the
    value is ``x/2`` times the even ``2 J1(|x|)/|x|``.
    Absolute error <= 1e-12 for ``|x| <= 50``.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.asarray(x, dtype=float)
    out = _reduced(1, arr)
    out *= 0.5 * arr
    return float(out) if scalar else out


def airy_amp(v, out: np.ndarray | None = None):
    """Normalized amplitude of a uniformly lit circular aperture, 2 J1(v)/v.

    The peak is 1 at ``v = 0`` (exactly, by the removable-singularity
    limit) and the first zero sits at v = 3.83171.  Even in ``v``.

    Parameters
    ----------
    v : float or ndarray
        Finite real argument, typically ``(spatial frequency) * radius``.
    out : ndarray, optional
        C-contiguous float64 array of the shape of ``v`` that receives the
        values; it may be ``v`` itself, which is then overwritten.

    Returns
    -------
    float or ndarray
        2 J1(v)/v, bounded by 1 in magnitude.
    """
    scalar = np.isscalar(v) or np.ndim(v) == 0
    out = _reduced(1, v, out)
    return float(out) if scalar else out
