"""Self-contained Bessel functions of the first kind and the Airy amplitude.

Everything downstream (the point spread functions and the coincidence
kernel) reduces to J0 and J1 of real argument, so the accuracy budget of
the whole model is set here.  The functions are evaluated from
scratch rather than delegated to an external special-function library,
at a fixed degree, so every value depends on its own argument alone:

* ``|x| <= 12``: with ``q = x^2/4``, ``J0(x) = 1 + q g_0(q)`` and
  ``2 J1(x)/x = 1 + q g_1(q)``, where ``g_n`` is a degree-18 Chebyshev
  series in ``t = x^2/72 - 1`` summed by Clenshaw's recurrence.  The
  form keeps ``airy_amp(0) == 1`` exact and ``airy_amp <= 1`` near 0.
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

The coefficient tables are written by ``scripts/make_specfun_tables.py``
from the 60-digit reference of the test suite (Chebyshev coefficients)
and from exact rationals (Hankel coefficients).  Measured against that
reference on 2001 points of [0, 50] plus 12 and the doubles on either
side of it, the largest absolute errors are

    ============  ==========  ==========
    function      ``<= 12``   ``> 12``
    ============  ==========  ==========
    J0            1.2e-14     8.2e-13
    J1            5.0e-14     5.4e-13
    2 J1(x)/x     8.3e-15     9.1e-14
    ============  ==========  ==========

and both Hankel maxima sit at the first double above 12.

All functions accept floats or numpy arrays and return the matching kind.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j0", "bessel_j1", "airy_amp"]

# Branch switchover: Chebyshev series below, Hankel expansion above.
_SERIES_CUTOFF = 12.0

# Coefficient tables indexed by n, written by scripts/make_specfun_tables.py.
# _SERIES[n]: Chebyshev coefficients of g_n in t = x^2/72 - 1.
# _HANKEL_P[n], _HANKEL_Q[n]: coefficients of P and x Q in 1/x^2.
_SERIES = (
    (  # n = 0
        -0.21238960542275623,
        0.3161896545713146,
        -0.22461208881897335,
        0.14614283331471312,
        -0.07060064051142383,
        0.023482338889794372,
        -0.005498937223797882,
        0.0009457051997593947,
        -0.0001241843613841498,
        1.2855967184111086e-05,
        -1.0766705643134417e-06,
        7.44920350495084e-08,
        -4.331938099610503e-09,
        2.148117243436741e-10,
        -9.19456569981163e-12,
        3.4332530308295306e-13,
        -1.1257406347890722e-14,
        3.511188735594306e-16,
        3.165870343657673e-17,
    ),
    (  # n = 1
        -0.1401754044050161,
        0.18026724779676265,
        -0.10532627668175584,
        0.05055018459333697,
        -0.018003724570273914,
        0.004646456006808486,
        -0.000885978983516737,
        0.00012863788891536752,
        -1.4641906515743318e-05,
        1.3398195127658032e-06,
        -1.0067211148230299e-07,
        6.322526507133331e-09,
        -3.3688713761634753e-10,
        1.542456350000822e-11,
        -6.134865655124203e-13,
        2.141790795643731e-14,
        -6.347593548957417e-16,
        3.208334928746688e-17,
        2.327420663602216e-17,
    ),
)
_HANKEL_P = (
    (  # n = 0
        1.0,
        -0.0703125,
        0.112152099609375,
        -0.5725014209747314,
        6.074042001273483,
        -110.01714026924674,
        3038.090510922384,
        -118838.42625678325,
        6252951.493434797,
        -425939216.5047669,
        36468400807.06556,
        -3833534661393.9443,
        485401468685290.06,
    ),
    (  # n = 1
        1.0,
        0.1171875,
        -0.144195556640625,
        0.6765925884246826,
        -6.883914268109947,
        121.59789187653587,
        -3302.2722944808525,
        127641.2726461746,
        -6656367.718817688,
        450278600.3050393,
        -38338575207.427895,
        4011838599133.1978,
        -506056850331472.6,
    ),
)
_HANKEL_Q = (
    (  # n = 0
        -0.125,
        0.0732421875,
        -0.22710800170898438,
        1.7277275025844574,
        -24.380529699556064,
        551.3358961220206,
        -18257.755474293175,
        832859.3040162893,
        -50069589.531988926,
        3836255180.2304335,
        -364901081884.98334,
        42189715702840.97,
    ),
    (  # n = 1
        0.375,
        -0.1025390625,
        0.2775764465332031,
        -1.993531733751297,
        27.248827311268542,
        -603.8440767050702,
        19718.37591223663,
        -890297.8767070678,
        53104110.10968523,
        -4043620325.107754,
        382701134659.8606,
        -44064814178522.79,
    ),
)


# ============================================================================
# evaluation (internal)
# ============================================================================

def _reduced(n: int, x) -> np.ndarray:
    """``J0(|x|)`` for n = 0, ``2 J1(|x|)/|x|`` for n = 1, as an array."""
    ax = np.abs(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(ax)):
        raise ValueError("bessel argument must be finite")
    out = np.empty_like(ax)
    lo = ax <= _SERIES_CUTOFF
    if lo.any():
        q = 0.25 * ax[lo] ** 2
        out[lo] = 1.0 + q * _clenshaw(_SERIES[n], q / 9.0 - 2.0)
    hi = ~lo
    if hi.any():
        a = ax[hi]
        y = 1.0 / (a * a)
        p = _horner(_HANKEL_P[n], y)
        qa = _horner(_HANKEL_Q[n], y) / a
        # cos(w) P - sin(w) Q from the one tangent t = tan(w/2)
        t = np.tan(0.5 * (a - (0.5 * n + 0.25) * np.pi))
        tt = t * t
        j = np.sqrt(2.0 / (np.pi * a)) * (((1.0 - tt) * p - 2.0 * t * qa) / (1.0 + tt))
        out[hi] = j if n == 0 else 2.0 * j / a
    return out


def _clenshaw(coeffs: tuple[float, ...], t2: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k] T_k(t)`` at ``t = t2 / 2``, by Clenshaw's recurrence."""
    b2 = np.full_like(t2, coeffs[-1])
    b1 = t2 * coeffs[-1] + coeffs[-2]
    tmp = np.empty_like(t2)
    for c in coeffs[-3:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    return 0.5 * t2 * b1 - b2 + coeffs[0]


def _horner(coeffs: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k] y^k``, by Horner's rule."""
    acc = coeffs[-1] * y + coeffs[-2]
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
        evaluation.  Absolute error <= 1e-12 for ``|x| <= 50``.
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
    out = 0.5 * arr * _reduced(1, arr)
    return float(out) if scalar else out


def airy_amp(v):
    """Normalized amplitude of a uniformly lit circular aperture, 2 J1(v)/v.

    The peak is 1 at ``v = 0`` (exactly, by the removable-singularity
    limit) and the first zero sits at v = 3.83171.  Even in ``v``.

    Parameters
    ----------
    v : float or ndarray
        Finite real argument, typically ``(spatial frequency) * radius``.

    Returns
    -------
    float or ndarray
        2 J1(v)/v, bounded by 1 in magnitude.
    """
    scalar = np.isscalar(v) or np.ndim(v) == 0
    out = _reduced(1, v)
    return float(out) if scalar else out
