"""Dense matrix exponential via Pade-13 scaling and squaring.

Works on single matrices or stacks of shape (..., n, n), real or complex;
float64 input stays float64, anything else runs in complex128.  Stacks are
processed in cache-sized chunks.  Every matrix gets its own scaling
exponent from its own 1-norm, and a squaring step multiplies only the
members that still need it, so one large-amplitude member does not
over-scale its neighbours.  Generators here are non-normal Liouvillians, so
spectral decomposition is deliberately not used.

This is the package's only matrix exponential, looked up as ``_expm.expm``
at call time.  Non-finite, singular or overflowing cases raise
:class:`NumericalHealthError` (CLI exit 3); non-square input ``ValueError``.
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


def _expm_chunk(a: np.ndarray) -> np.ndarray:
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.zeros(len(a), dtype=int)
    big = norm1 > _THETA13
    s[big] = np.ceil(np.log2(norm1[big] / _THETA13))
    x = a / (2.0 ** s)[:, None, None]

    n = a.shape[-1]
    ident = np.broadcast_to(np.eye(n, dtype=a.dtype), x.shape)
    b = _B13
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError(f"Pade denominator is singular: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(s.max(initial=0)):
            todo = s > step
            if todo.all():
                r = r @ r
            else:
                r[todo] = r[todo] @ r[todo]
    if not np.all(np.isfinite(r)):
        raise NumericalHealthError("matrix exponential overflowed")
    return r


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a single matrix or a stack (..., n, n) of matrices."""
    a = np.asarray(a)
    a = a.astype(float if np.isrealobj(a) else complex, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalHealthError("non-finite entries in exponent")
    single = a.ndim == 2
    if single:
        a = a[None]
    lead = a.shape[:-2]
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    chunk = max(1, _CHUNK_BYTES // (a.itemsize * n * n))
    if flat.shape[0] <= chunk:
        out = _expm_chunk(flat)
    else:
        out = np.empty_like(flat)
        for i in range(0, flat.shape[0], chunk):
            out[i:i + chunk] = _expm_chunk(flat[i:i + chunk])
    out = out.reshape(lead + (n, n))
    return out[0] if single else out
