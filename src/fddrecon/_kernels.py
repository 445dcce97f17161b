"""Numeric kernels of path extraction, in numpy.

`moment_cube` is the hot inner loop once the FFTs are done: it contracts the
observation against an atom with polynomial index weights (the moments
behind the Newton gradient/Hessian), and `index_weighted` gives those weights
for one factor. `kron3` materializes one rank-1 Kronecker atom; channels,
residuals and lstsq bases are built from factor matrices by `sysmodel`'s
`atom_sum` and `atom_basis` instead, so it serves only as the reference atom
(`enomp.synth_atom`), which `atom_basis` columns equal bit for bit.
"""

import numpy as np

# the only implementation; benchmark result files record it
BACKEND = "numpy"


def kron3(a_v, a_h, p_n):
    """Atom a_v (x) a_h (x) p_n flattened to length M_v*M_h*N."""
    return (np.outer(a_v, a_h).reshape(-1, 1) * p_n).ravel()


def moment_cube(y3, a_v, a_h, p_n, c_v=0.0, c_h=0.0, c_n=0.0):
    """Weighted inner products of an atom against conj(y).

    Returns a (3, 3, 3) complex cube W with
      W[a, b, c] = sum_{m,h,n} conj(y3[m,h,n]) a_v[m] a_h[h] p_n[n]
                   * (m - c_v)^a (h - c_h)^b (n - c_n)^c
    so W[0,0,0] is the plain correlation y^H (a_v (x) a_h (x) p_n). The
    optional centers shift the polynomial index weights only, not the atom.
    """
    M_v, M_h, N = y3.shape
    pw = index_weighted(p_n, c_n)                                 # (N, 3)
    # contract y3 against conj(pw) and conjugate the small result: the same
    # numbers as conj(y3) @ pw without copying the whole cube
    v = (y3.reshape(M_v * M_h, N) @ pw.conj()).conj().reshape(M_v, M_h, 3)
    t = np.einsum("vhc,hb->vbc", v, index_weighted(a_h, c_h))
    return np.einsum("vbc,va->abc", t, index_weighted(a_v, c_v))


def index_weighted(x, c=0.0):
    """Columns x, x * i, x * i^2 for the centred index i = 0, 1, ... minus c:
    shape (len(x), 3)."""
    i = np.arange(len(x)) - c
    xi = x * i
    return np.array([x, xi, xi * i]).T
