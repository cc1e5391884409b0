"""Exact Lie closure: the tests' reference for ``reach.lie_closure_dimension``.

Every float is a dyadic rational, so a Hermitian generator times a power of
two is a Gaussian-integer matrix, and so is i[A, B] of two of them.  The
closure's dimension is the rank of integer vectors, taken mod p = 2^61 - 1
and cross-checked at 2^31 - 1: a rank mod p can only undercount the rank over
Q, where p divides a nonzero minor.  It is exact for the rounded inputs, with
no tolerance, so a set whose algebra is small only up to rounding (a Pauli set
after a float rotation) gets the larger algebra of its rounded entries.
"""

import numpy as np

PRIMES = (2**61 - 1, 2**31 - 1)
_LOW32, _LOW29 = np.uint64(2**32 - 1), np.uint64(2**29 - 1)


def _integers(generator, p) -> np.ndarray:
    """N times the traceless part of the generator, scaled by a power of two
    to Gaussian integers: real and imaginary parts (2, N, N), mod p."""
    g = np.asarray(generator, dtype=complex)
    parts = np.stack([g.real, g.imag]).tolist()
    ratios = [[[x.as_integer_ratio() for x in row] for row in part] for part in parts]
    scale = max(den for part in ratios for row in part for _, den in row)
    ints = np.array([[[num * (scale // den) for num, den in row] for row in part]
                     for part in ratios], dtype=object)
    n = g.shape[0]
    ints = n * ints - np.trace(ints, axis1=1, axis2=2)[:, None, None] * np.eye(n, dtype=int)
    return (ints % p).astype(np.uint64)


def _mulmod(a, b, p):
    """a * b mod p, elementwise, for uint64 residues; p is 2^61 - 1 or below 2^32."""
    if p < 2**32:
        return a * b % p
    # a b = a1 b1 2^64 + (a1 b0 + a0 b1) 2^32 + a0 b0, with 2^61 = 1 mod p
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    mid, low = a1 * b0 + a0 * b1, a0 * b0
    return (((a1 * b1) << 3) + (mid >> 29) + ((mid & _LOW29) << 32)
            + (low >> 61) + (low & np.uint64(p))) % p


def _matmul(a, b, p):
    """a @ b mod p for residue stacks; a sum of N <= 8 residues fits 64 bits."""
    return _mulmod(a[..., :, :, None], b[..., None, :, :], p).sum(axis=-2, dtype=np.uint64) % p


def _bracket(a, b, p):
    """i[A, B] mod p for Hermitian stacks (..., 2, N, N) of real and imaginary
    parts: with C = AB, BA = C^dag and i[A, B] = -(C_i + C_i^T) + i (C_r - C_r^T)."""
    (ar, ai), (br, bi) = np.moveaxis(a, -3, 0), np.moveaxis(b, -3, 0)
    cr = (_matmul(ar, br, p) + p - _matmul(ai, bi, p)) % p
    ci = (_matmul(ar, bi, p) + _matmul(ai, br, p)) % p
    return np.stack([(2 * p - ci - ci.swapaxes(-1, -2)) % p,
                     (cr + p - cr.swapaxes(-1, -2)) % p], axis=-3)


def _rref(rows, p):
    """Reduced row echelon form mod p: the nonzero rows and their pivot columns."""
    m, pivots = rows.copy(), []
    for c in range(m.shape[1]):
        r = len(pivots)
        nonzero = np.flatnonzero(m[r:, c])
        if not len(nonzero):
            continue
        m[[r, r + nonzero[0]]] = m[[r + nonzero[0], r]]
        m[r, c:] = _mulmod(m[r, c:], np.uint64(pow(int(m[r, c]), p - 2, p)), p)
        # row r is zero before column c, so only columns c on change
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        m[hit, c:] = (m[hit, c:] + p - _mulmod(m[hit, c, None], m[r, c:], p)) % p
        pivots.append(c)
    return m[:len(pivots)], pivots


def _closure_rank(generators, p) -> int:
    """Rank mod p of the span of the generators' nested brackets."""
    gens = np.array([_integers(g, p) for g in generators])
    shape = gens.shape[1:]
    basis, pivots = _rref(gens.reshape(len(gens), -1), p)
    new = basis
    while len(new):
        # brackets of every generator with the directions the last round added;
        # left-normed brackets of the generators span the algebra they generate
        brackets = _bracket(gens[:, None], new.reshape(-1, *shape)[None], p)
        rows, grown = _rref(np.concatenate([basis, brackets.reshape(-1, basis.shape[1])]), p)
        new = rows[[i for i, c in enumerate(grown) if c not in pivots]]
        basis, pivots = rows, grown
    return len(basis)


def exact_closure_dimension(generators) -> int:
    """Dimension of the real Lie algebra generated by the traceless parts of
    i H over the Hermitian ``generators`` (N <= 8), exact for the rounded
    inputs; the two primes must agree."""
    dims = [_closure_rank(generators, p) for p in PRIMES]
    assert dims[0] == dims[1], f"closure ranks {dims} differ between the primes {PRIMES}"
    return dims[0]
