"""Hot numeric kernels with numba and pure-numpy implementations.

Two inner loops dominate the path-extraction runtime once the FFTs are done:
synthesizing rank-1 Kronecker atoms and contracting the observation against
an atom with polynomial index weights (the moments behind the Newton
gradient/Hessian). Both carry an @njit version and a numpy version.

Backend selection: the FDDRECON_NUMBA environment variable.
  "auto" (default)  use numba when importable, else numpy
  "0"/"off"/"false" force the numpy path
  "1"/"on"/"require" require numba, raise if it is missing
FFTs and dense linear algebra always stay on numpy; numba offers nothing
there.
"""

import os

import numpy as np


def kron3_numpy(a_v, a_h, p_n):
    """Atom a_v (x) a_h (x) p_n flattened to length M_v*M_h*N."""
    return (np.outer(a_v, a_h).reshape(-1, 1) * p_n).ravel()


def moment_cube_numpy(y3, a_v, a_h, p_n, c_v=0.0, c_h=0.0, c_n=0.0):
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


_HAVE_NUMBA = False
_mode = os.environ.get("FDDRECON_NUMBA", "auto").strip().lower()

if _mode not in ("0", "off", "false"):
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _mode in ("1", "on", "require"):
            raise ImportError(
                "FDDRECON_NUMBA requires numba but it is not installed")

if _HAVE_NUMBA:

    @njit(cache=True)
    def kron3_numba(a_v, a_h, p_n):
        M_v = a_v.shape[0]
        M_h = a_h.shape[0]
        N = p_n.shape[0]
        out = np.empty(M_v * M_h * N, dtype=np.complex128)
        i = 0
        for v in range(M_v):
            for h in range(M_h):
                w = a_v[v] * a_h[h]
                for n in range(N):
                    out[i] = w * p_n[n]
                    i += 1
        return out

    @njit(cache=True)
    def moment_cube_numba(y3, a_v, a_h, p_n, c_v=0.0, c_h=0.0, c_n=0.0):
        M_v, M_h, N = y3.shape
        out = np.zeros((3, 3, 3), dtype=np.complex128)
        for v in range(M_v):
            dv = v - c_v
            for h in range(M_h):
                s0 = 0.0 + 0.0j
                s1 = 0.0 + 0.0j
                s2 = 0.0 + 0.0j
                for n in range(N):
                    u = np.conj(y3[v, h, n]) * p_n[n]
                    dn = n - c_n
                    s0 += u
                    s1 += u * dn
                    s2 += u * dn * dn
                w = a_v[v] * a_h[h]
                dh = h - c_h
                fa = 1.0
                for a in range(3):
                    fb = 1.0
                    for b in range(3):
                        coeff = w * (fa * fb)
                        out[a, b, 0] += coeff * s0
                        out[a, b, 1] += coeff * s1
                        out[a, b, 2] += coeff * s2
                        fb *= dh
                    fa *= dv
        return out

    kron3 = kron3_numba
    moment_cube = moment_cube_numba
    BACKEND = "numba"
else:
    kron3 = kron3_numpy
    moment_cube = moment_cube_numpy
    BACKEND = "numpy"
