"""Numeric kernels of path extraction, in numpy.

`moment_cube` is the hot inner loop once the FFTs are done: it contracts the
observation against an atom with polynomial index weights (the moments
behind the Newton gradient/Hessian), and `index_weighted` gives those weights
for one factor. `kron3` materializes one rank-1 Kronecker atom; channels,
residuals and lstsq bases are built from factor matrices by `sysmodel`'s
`atom_sum` and `atom_basis` instead, so it serves only as the reference atom
(`enomp.synth_atom`), which `atom_basis` columns equal bit for bit.
"""

import functools

import numpy as np

# the only implementation; benchmark result files record it
BACKEND = "numpy"


def kron3(a_v, a_h, p_n):
    """Atom a_v (x) a_h (x) p_n flattened to length M_v*M_h*N."""
    return (np.outer(a_v, a_h).reshape(-1, 1) * p_n).ravel()


def moment_cube(y3, a_v, a_h, p_n, c_v=0.0, c_h=0.0, c_n=0.0, weights=None):
    """Weighted inner products of an atom against conj(y).

    Returns a (3, 3, 3) complex cube W with
      W[a, b, c] = sum_{m,h,n} conj(y3[m,h,n]) a_v[m] a_h[h] p_n[n]
                   * (m - c_v)^a (h - c_h)^b (n - c_n)^c
    so W[0,0,0] is the plain correlation y^H (a_v (x) a_h (x) p_n). The
    optional centers shift the polynomial index weights only, not the atom.
    `weights`, when given, is the tuple of `index_weighted(x, c)` for the
    three factors at those centers, built once by a caller that needs them
    elsewhere too; they are built here otherwise.
    """
    M_v, M_h, N = y3.shape
    y2 = y3.reshape(M_v * M_h, N)
    w_v, w_h, w_n = weights if weights is not None else map(
        index_weighted, (a_v, a_h, p_n), (c_v, c_h, c_n))
    pw = w_n.T.conj()                                             # (3, N)
    # contract y3 against the conjugated weights and conjugate the small
    # result: the same numbers as conj(y3) @ w_n without copying the whole
    # cube. Three matrix-vector products over y, as one (M, N) @ (N, 3)
    # product ran 1.4x slower on OpenBLAS.
    v = np.empty((3, M_v * M_h), dtype=complex)
    for c in range(3):
        np.matmul(y2, pw[c], out=v[c])
    # v[c, m, h] -> t[c, m, b] -> W[a, (c, b)]
    t = v.conj().reshape(3 * M_v, M_h) @ w_h
    t = t.reshape(3, M_v, 3).transpose(1, 0, 2).reshape(M_v, 9)
    return (w_v.T @ t).reshape(3, 3, 3).transpose(0, 2, 1)


@functools.lru_cache(maxsize=64)
def _centred_indices(n: int, c: float) -> np.ndarray:
    """Read-only 0, 1, ..., n - 1 minus c, shared by every call of that size
    and centre (extraction uses three)."""
    out = np.arange(n) - c
    out.flags.writeable = False
    return out


def index_weighted(x, c=0.0):
    """Columns x, x * i, x * i^2 for the centred index i = 0, 1, ... minus c:
    shape (len(x), 3)."""
    i = _centred_indices(len(x), float(c))
    xi = x * i
    return np.array([x, xi, xi * i]).T
