"""Dense matrix exponential and its Frechet derivative, via a degree-25
Taylor polynomial with scaling and squaring.

Works on single matrices or stacks of shape (..., n, n), real or complex;
float64 input stays float64, anything else runs in complex128.  Every
matrix of a stack gets its own scaling exponent from its own 1-norm, and a
squaring step multiplies only the members that still need it, so one
large-amplitude member does not over-scale its neighbours.  Generators
here are non-normal Liouvillians, so spectral decomposition is
deliberately not used.

:func:`expm` is the package's only matrix exponential and Frechet
derivative, looked up as ``_expm.expm`` at call time.  The scaled x = a /
2^s, with ||x||_1 <= theta_25, goes into T_25(x) = sum_{j <= 25} x^j / j!
by Paterson-Stockmeyer with q = 5: the powers x, ..., x^5 in one stack (4
products), each block sum_j c_(5i+j) x^j as one contraction of a row of
the coefficient table against that stack plus its constant on the
diagonal, and 4 Horner steps in x^5; no denominator, so no solve.
theta_25 is the largest 1-norm at which the backward error of T_25,
log(e^-x T_25(x)), stays below 2^-53 relative (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 488 (2011), Sec. 3).  Asked for the derivative, it keeps
the scaling exponents, the scaled powers and the squaring ladder, and
returns, beside exp(a), a function that evaluates L(a, u v^T) along
rank-one directions from that state, so a derivative costs no second
exponential.  Along y = u v^T the derivative of T_25 is K_u H K_v^T
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639 (2009), with a
rank-one direction), where K_u = [u, x u, ..., x^24 u] and K_v = [v, x^T v,
..., (x^T)^24 v] are 25 Krylov vectors built from the kept powers and
H[i, l] = 1/(i+l+1)! for i + l + 1 <= 25 is a constant Hankel table.  That
rank-25 result runs up the squaring ladder L <- R L + L R as thin factors,
doubling their width per step, until a dense L costs less.
Non-finite or overflowing cases raise :class:`NumericalHealthError` (CLI
exit 3); non-square or mismatched input ``ValueError``.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .exceptions import NumericalHealthError

_DEGREE, _Q = 25, 5
# largest 1-norm at which T_25's relative backward error is at most 2^-53
_THETA25 = 2.4285825244428264
# Taylor coefficients c_j = 1/j!.  T_25 = B_0 + x^5 (B_1 + x^5 (B_2 + x^5 (B_3
# + x^5 B_4))) with B_i = c_(5i) I + sum_(j=1..5) _ROWS[i, j - 1] x^j: row i
# holds c_(5i+1), ..., c_(5i+4), and the top row also c_25 against x^5
_C = np.array([1.0 / factorial(j) for j in range(_DEGREE + 1)])
_ROWS = _C[1:].reshape(_Q, _Q).copy()
_ROWS[:-1, -1] = 0.0
# Hankel table of T_25's derivative along a rank-one direction,
# H[i, l] = c_(i+l+1), zero past degree 25
_DEG = np.add.outer(np.arange(_DEGREE), np.arange(_DEGREE)) + 1
_H = np.where(_DEG <= _DEGREE, _C[np.minimum(_DEG, _DEGREE)], 0.0)


def _taylor(a, scale, keep):
    """T_25(x) at x = a / scale for a (k, n, n) stack and, with ``keep``, the
    powers x, ..., x^5 as one (k, 5, n, n) stack; without it they go out of
    scope on return, before the squarings.  Beside the powers, two buffers:
    each Horner step writes x^5 r to one and the next block to the other."""
    k, n = a.shape[:2]
    pw = np.empty((k, _Q, n, n), dtype=a.dtype)
    x = np.divide(a, scale, out=pw[:, 0])
    for j in range(1, _Q):
        np.matmul(pw[:, j - 1], x, out=pw[:, j])
    flat, x5 = pw.reshape(k, _Q, n * n), pw[:, -1]
    r, t = np.matmul(_ROWS[-1], flat), np.empty((k, n * n), dtype=x.dtype)
    r[:, ::n + 1] += _C[_DEGREE - _Q]
    for i in range(_Q - 2, -1, -1):
        np.matmul(x5, r.reshape(k, n, n), out=t.reshape(k, n, n))
        t += np.matmul(_ROWS[i], flat, out=r)
        t[:, ::n + 1] += _C[_Q * i]
        r, t = t, r
    return r.reshape(k, n, n), (pw if keep else None)


def _todo(s, step):
    """The members of squaring step ``step``: all while every one squares."""
    return slice(None) if step < s.min() else s > step


def _exp(a, keep):
    """exp(a) for a (k, n, n) stack and, with ``keep``, its Taylor state.

    Each matrix is scaled by 2^-s from its own 1-norm and squared s times; a
    step whose members do not all square works on them alone.  The state
    keeps, per step, the R_i that were squared.
    """
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.zeros(len(a), dtype=int)
    big = norm1 > _THETA25
    s[big] = np.ceil(np.log2(norm1[big] / _THETA25))
    scale = (2.0 ** s)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        r, powers = _taylor(a, scale, keep)
        ladder = []
        for step in range(s.max(initial=0)):
            todo = _todo(s, step)
            rt = r[todo]
            if keep:
                ladder.append(rt)
            if step < s.min():
                r = rt @ rt    # rt is all of r: a new array keeps the ladder's R_i
            else:
                r[todo] = rt @ rt
    if not np.all(np.isfinite(r)):
        raise NumericalHealthError("matrix exponential overflowed")
    return r, ((s, scale, powers, ladder) if keep else None)


def _krylov(powers, v):
    """[v, x v, ..., x^24 v] as the columns of a (k, n, 25) stack, from v of
    shape (k, n, 1) and the kept powers x, ..., x^5: one product with the
    first four powers, then four with x^5."""
    k, n = v.shape[:2]
    kv = np.empty((k, n, _DEGREE), dtype=np.result_type(powers, v))
    kv[..., :1] = v
    kv[..., 1:_Q] = np.swapaxes((powers[:, :-1] @ v[:, None])[..., 0], -1, -2)
    for j in range(_Q, _DEGREE, _Q):
        kv[..., j:j + _Q] = powers[:, -1] @ kv[..., j - _Q:j]
    return kv


def _frechet(state, u, v):
    """L(a, u v^T) for a stack from its Taylor state, with u and v of shape (k, n).

    At the scaled x, L_0 = P W^T with P = K_u and W^T = H K_v^T.  Each
    squaring R <- R R carries L <- R L + L R, on the thin factors as
    P <- [R P, P], W^T <- [W^T; W^T R] (zero columns R P for members not
    squaring) while the doubled width is at most n, then on the dense
    L = P W^T.
    """
    s, scale, powers, ladder = state
    with np.errstate(over="ignore", invalid="ignore"):
        p = _krylov(powers, u[..., None] / scale)
        wt = _H @ np.swapaxes(_krylov(np.swapaxes(powers, -1, -2), v[..., None]), -1, -2)
        l = None
        for step, rt in enumerate(ladder):
            todo = _todo(s, step)
            if 2 * p.shape[-1] <= p.shape[-2]:
                rp, wtr = np.zeros_like(p), wt.copy()
                rp[todo] = rt @ p[todo]
                wtr[todo] = wt[todo] @ rt
                p, wt = np.concatenate([rp, p], axis=-1), np.concatenate([wt, wtr], axis=-2)
                continue
            l = p @ wt if l is None else l
            lt = l[todo]
            l[todo] = rt @ lt + lt @ rt
        l = p @ wt if l is None else l
    if not np.all(np.isfinite(l)):
        raise NumericalHealthError("derivative of the matrix exponential overflowed")
    return l


def expm(a: np.ndarray, derivative: bool = False):
    """exp(a) for a single matrix or a stack (..., n, n) of matrices.

    With ``derivative=True`` returns ``(exp(a), frechet)``: ``frechet(u, v)``
    is L(a, u v^T) for stacks u, v of shape (..., n), the Frechet derivative
    of the exponential at a along the rank-one direction u v^T (the
    first-order term of exp(a + t u v^T) - exp(a) in t), evaluated from the
    Taylor state that exp(a) left behind.
    """
    a = np.asarray(a)
    a = a.astype(float if np.isrealobj(a) else complex, copy=False)
    shape = a.shape
    if len(shape) < 2 or shape[-1] != shape[-2] or shape[-1] == 0:
        raise ValueError(f"expected square matrices, got shape {shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalHealthError("non-finite entries in exponent")
    n = shape[-1]
    r, state = _exp(a.reshape(-1, n, n), derivative)
    r = r.reshape(shape)
    if not derivative:
        return r
    dtype = a.dtype    # frechet must not keep the exponent alive

    def frechet(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u, v = np.asarray(u), np.asarray(v)
        if u.shape != shape[:-1] or v.shape != shape[:-1]:
            raise ValueError(f"vector shapes {u.shape} and {v.shape} do not match {shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NumericalHealthError("non-finite entries in direction")
        kind = dtype if np.isrealobj(u) and np.isrealobj(v) else complex
        l = _frechet(state, u.astype(kind, copy=False).reshape(-1, n),
                     v.astype(kind, copy=False).reshape(-1, n))
        return l.reshape(shape)

    return r, frechet
