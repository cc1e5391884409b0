"""Dense matrix exponential and its Frechet derivative, via Pade-13 scaling
and squaring.

Works on single matrices or stacks of shape (..., n, n), real or complex;
float64 input stays float64, anything else runs in complex128.  Every
matrix of a stack gets its own scaling exponent from its own 1-norm, and a
squaring step multiplies only the members that still need it, so one
large-amplitude member does not over-scale its neighbours.  Generators
here are non-normal Liouvillians, so spectral decomposition is
deliberately not used.

:func:`expm` is the package's only matrix exponential and Frechet
derivative, looked up as ``_expm.expm`` at call time.  Asked for the
derivative, it keeps the stack's Pade state (the scaling exponents, the
scaled powers x, x^2, x^4, x^6, the Pade denominator, R_0 and the squaring
ladder) and returns, beside exp(a), a function that evaluates L(a, u v^T)
along rank-one directions from that state, so a derivative costs no second
exponential.  It follows Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 30,
1639 (2009), Alg. 6.4) with a rank-one direction: with p = sum b_j x^j and
q = sum (-1)^j b_j x^j the Pade-13 numerator and denominator at the scaled
x, their derivatives along y = u v^T are K_u H_p K_v^T and K_u H_q K_v^T,
where K_u = [u, x u, ..., x^12 u] and K_v = [v, x^T v, ..., (x^T)^12 v] are
13 Krylov vectors built from the kept powers and H_p[i, l] = b_(i+l+1),
H_q[i, l] = (-1)^(i+l+1) b_(i+l+1) are constant Hankel tables.  The Pade
stage is then a solve with 13 right-hand sides, and its rank-13 result
runs up the squaring ladder L <- R L + L R as thin factors, doubling their
width per step, until a dense L costs less.
Non-finite, singular or overflowing cases raise
:class:`NumericalHealthError` (CLI exit 3); non-square or mismatched input
``ValueError``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericalHealthError

# Pade-13 numerator coefficients (Higham, "Functions of Matrices", Table 10.4)
_B13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
])
_THETA13 = 5.371920351148152
# Hankel tables of the Pade sums' derivatives along a rank-one direction:
# H_p[i, l] = b_(i+l+1) for the numerator, H_q[i, l] = (-1)^(i+l+1) b_(i+l+1)
# for the denominator, zero past degree 13
_DEG = np.add.outer(np.arange(13), np.arange(13)) + 1
_HP = np.where(_DEG <= 13, _B13[np.minimum(_DEG, 13)], 0.0)
_HQ = (-1.0) ** _DEG * _HP


def _inner(p2, p4, p6, j):
    """b_j p6 + b_(j-2) p4 + b_(j-4) p2: w1 (j = 13) and z1 (j = 12) of the
    Pade sums."""
    out = _B13[j] * p6
    out += _B13[j - 2] * p4
    out += _B13[j - 4] * p2
    return out


def _pade13(x, keep):
    """Denominator V - U and numerator V + U of the degree-13 Pade approximant
    at x and, with ``keep``, the powers (x, x^2, x^4, x^6) its derivative
    reads; without it the powers go out of scope on return, before the solve."""
    b = _B13
    ident = np.broadcast_to(np.eye(x.shape[-1], dtype=x.dtype), x.shape)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    w = x6 @ _inner(x2, x4, x6, 13) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    v = x6 @ _inner(x2, x4, x6, 12) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    u = x @ w
    return v - u, v + u, ((x, x2, x4, x6) if keep else None)


def _solve(den, rhs):
    try:
        return np.linalg.solve(den, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError(f"Pade denominator is singular: {exc}") from exc


def _todo(s, step):
    """The members of squaring step ``step``: all while every one squares."""
    return slice(None) if step < s.min() else s > step


def _pade(a, keep):
    """exp(a) for a (k, n, n) stack and, with ``keep``, its Pade state.

    Each matrix is scaled by 2^-s from its own 1-norm and squared s times; a
    step whose members do not all square works on them alone.  The state
    keeps R_0 whole and, per step, the R_i that were squared.
    """
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.zeros(len(a), dtype=int)
    big = norm1 > _THETA13
    s[big] = np.ceil(np.log2(norm1[big] / _THETA13))
    scale = (2.0 ** s)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        den, num, powers = _pade13(a / scale, keep)
        r = _solve(den, num)
        r0 = r if keep else None
        if keep and s.size and s.min() == 0 < s.max():
            r = r.copy()       # step 0 squares in place, and R_0 must stay whole
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
    return r, ((s, scale, powers, den, r0, ladder) if keep else None)


def _krylov(powers, v):
    """[v, x v, ..., x^12 v] as the columns of a (k, n, 13) stack, from v of
    shape (k, n, 1) and the kept powers x, x^2, x^4, x^6: four thin products."""
    x, x2, x4, x6 = powers
    kv = np.concatenate([v, x @ v], axis=-1)
    kv = np.concatenate([kv, x2 @ kv], axis=-1)
    kv = np.concatenate([kv, x4 @ kv], axis=-1)
    return np.concatenate([kv, x6 @ kv[..., 2:7]], axis=-1)


def _frechet(state, u, v):
    """L(a, u v^T) for a stack from its Pade state, with u and v of shape (k, n).

    At the scaled x, L_0 = P W^T with P = q^-1 K_u, a solve with 13
    right-hand sides, and W^T = H_p K_v^T - H_q K_v^T R_0.  Each squaring
    R <- R R carries L <- R L + L R, on the thin factors as P <- [R P, P],
    W^T <- [W^T; W^T R] (zero columns R P for members not squaring) while
    the doubled width is at most n, then on the dense L = P W^T.
    """
    s, scale, powers, den, r0, ladder = state
    with np.errstate(over="ignore", invalid="ignore"):
        ku = _krylov(powers, u[..., None] / scale)
        kvt = np.swapaxes(_krylov([np.swapaxes(p, -1, -2) for p in powers], v[..., None]),
                          -1, -2)
        p, wt, l = _solve(den, ku), _HP @ kvt - _HQ @ (kvt @ r0), None
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
    Pade state that exp(a) left behind.
    """
    a = np.asarray(a)
    a = a.astype(float if np.isrealobj(a) else complex, copy=False)
    shape = a.shape
    if len(shape) < 2 or shape[-1] != shape[-2] or shape[-1] == 0:
        raise ValueError(f"expected square matrices, got shape {shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalHealthError("non-finite entries in exponent")
    n = shape[-1]
    r, state = _pade(a.reshape(-1, n, n), derivative)
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
