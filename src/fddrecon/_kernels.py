"""Hot numeric kernels of path extraction, in numpy.

Two inner loops dominate the path-extraction runtime once the FFTs are done:
synthesizing rank-1 Kronecker atoms and contracting the observation against
an atom with polynomial index weights (the moments behind the Newton
gradient/Hessian).
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
    n = np.arange(N) - c_n
    pw = np.stack([p_n, p_n * n, p_n * n * n], axis=1)           # (N, 3)
    # contract y3 against conj(pw) and conjugate the small result: the same
    # numbers as conj(y3) @ pw without copying the whole cube
    v = (y3.reshape(M_v * M_h, N) @ pw.conj()).conj().reshape(M_v, M_h, 3)
    h = np.arange(M_h) - c_h
    hw = np.stack([a_h, a_h * h, a_h * h * h], axis=1)           # (M_h, 3)
    t = np.einsum("vhc,hb->vbc", v, hw)
    m = np.arange(M_v) - c_v
    vw = np.stack([a_v, a_v * m, a_v * m * m], axis=1)           # (M_v, 3)
    return np.einsum("vbc,va->abc", t, vw)
