"""Dense matrix exponential and its Frechet derivative, via Pade-13 scaling
and squaring.

Works on single matrices or stacks of shape (..., n, n), real or complex;
float64 input stays float64, anything else runs in complex128.  Stacks are
processed in cache-sized chunks.  Every matrix gets its own scaling
exponent from its own 1-norm, and a squaring step multiplies only the
members that still need it, so one large-amplitude member does not
over-scale its neighbours.  Generators here are non-normal Liouvillians, so
spectral decomposition is deliberately not used.

:func:`expm` is the package's only matrix exponential and
:func:`expm_frechet` its only Frechet derivative; both share one Pade
evaluation, one squaring loop and one set of checks, and are looked up as
``_expm.expm`` and ``_expm.expm_frechet`` at call time.  Non-finite,
singular or overflowing cases raise :class:`NumericalHealthError` (CLI
exit 3); non-square or mismatched input ``ValueError``.
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

# chunk so that one stack temporary stays around ~25 MB
_CHUNK_BYTES = 25_000_000


def _pade13(x: np.ndarray, y: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(U, V) of the degree-13 Pade approximant (V - U)^-1 (V + U) at x and,
    given y, their Frechet derivatives (L_U, L_V) along y.

    The derivative terms follow Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    30, 1639 (2009), Alg. 6.4: each power x^j carries its derivative M_j.
    The powers go out of scope on return, before the caller's solve.
    """
    b = _B13
    ident = np.broadcast_to(np.eye(x.shape[-1], dtype=x.dtype), x.shape)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    w1 = b[13] * x6 + b[11] * x4 + b[9] * x2
    z1 = b[12] * x6 + b[10] * x4 + b[8] * x2
    w = x6 @ w1 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    v = x6 @ z1 + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    u = x @ w
    if y is None:
        return u, v
    m2 = x @ y + y @ x
    m4 = x2 @ m2 + m2 @ x2
    m6 = x4 @ m2 + m4 @ x2
    lu = (x @ (x6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + m6 @ w1
               + b[7] * m6 + b[5] * m4 + b[3] * m2) + y @ w)
    lv = (x6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + m6 @ z1
          + b[6] * m6 + b[4] * m4 + b[2] * m2)
    return u, v, lu, lv


def _pade_chunk(a: np.ndarray, e: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(exp(a),) or, given e, (exp(a), L(a, e)) for a (k, n, n) chunk.

    Each matrix is scaled by 2^-s from its own 1-norm, and each of its s
    squarings R <- R R carries L <- R L + L R.
    """
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.zeros(len(a), dtype=int)
    big = norm1 > _THETA13
    s[big] = np.ceil(np.log2(norm1[big] / _THETA13))
    scale = (2.0 ** s)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        u, v, *lu_lv = _pade13(a / scale, None if e is None else e / scale)
        try:
            r = np.linalg.solve(v - u, v + u)
            out = (r,)
            if lu_lv:
                lu, lv = lu_lv
                out = (r, np.linalg.solve(v - u, lu + lv + (lu - lv) @ r))
        except np.linalg.LinAlgError as exc:
            raise NumericalHealthError(f"Pade denominator is singular: {exc}") from exc
        for step in range(s.max(initial=0)):
            todo = slice(None) if step < s.min() else s > step
            rt = out[0][todo]
            if e is not None:
                lt = out[1][todo]
                out[1][todo] = rt @ lt + lt @ rt
            out[0][todo] = rt @ rt
    if not all(np.all(np.isfinite(o)) for o in out):
        raise NumericalHealthError("matrix exponential or its derivative overflowed")
    return out


def _stacked(*mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Check equal-shape square stacks and run them through :func:`_pade_chunk`."""
    mats = [np.asarray(m) for m in mats]
    dtype = float if all(np.isrealobj(m) for m in mats) else complex
    mats = [m.astype(dtype, copy=False) for m in mats]
    shape = mats[0].shape
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise ValueError(f"expected square matrices, got shape {shape}")
    if any(m.shape != shape for m in mats):
        raise ValueError(f"direction shape {mats[1].shape} does not match {shape}")
    for m, what in zip(mats, ("exponent", "direction")):
        if not np.all(np.isfinite(m)):
            raise NumericalHealthError(f"non-finite entries in {what}")
    n = shape[-1]
    flat = [m.reshape(-1, n, n) for m in mats]
    total = flat[0].shape[0]
    chunk = max(1, _CHUNK_BYTES // (flat[0].itemsize * n * n))
    if total <= chunk:
        outs = _pade_chunk(*flat)
    else:
        outs = tuple(np.empty_like(f) for f in flat)
        for i in range(0, total, chunk):
            for out, part in zip(outs, _pade_chunk(*(f[i:i + chunk] for f in flat))):
                out[i:i + chunk] = part
    return tuple(o.reshape(shape) for o in outs)


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a single matrix or a stack (..., n, n) of matrices."""
    return _stacked(a)[0]


def expm_frechet(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(a), L(a, e)) for matrices or equal-shape stacks (..., n, n).

    L(a, e) is the Frechet derivative of the exponential at a along e, the
    first-order term of exp(a + t e) - exp(a) in t.
    """
    return _stacked(a, e)
