"""A-posteriori certification of the embedding quality of a sketch.

The exact embedding error of Theta on a computed subspace,

    omega = max{1 - sigma_min(Theta U)^2, sigma_max(Theta U)^2 - 1},

is unobservable at scale (it needs an exact orthonormal basis U). Instead we
bound it using a second, statistically independent sketch Phi that only has
to embed single vectors: with probability >= 1 - delta*,

    omega <= omega_bar = max{1 - (1 - eps*) sigma_min(V_phi X)^2,
                             (1 + eps*) sigma_max(V_phi X)^2 - 1},

where X orthonormalizes V_theta = Theta V. The bound is computed entirely
from the two small sketches of V, never touching the n-dimensional basis.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["omega_bar"]


def _triangular(X) -> np.ndarray:
    """The triangular factor R, min(n, m) x m, of one binary64 Householder
    QR of the n x m matrix X, so that X[:, :i] and R[:i, :i] share their
    nonzero singular values. A binary64 Fortran-ordered X is overwritten
    by its factorization."""
    return scipy.linalg.qr(X, overwrite_a=True, mode="raw")[1]


def _whiten(R, Y) -> np.ndarray:
    """Y R^-1 for the triangular factor R of a matrix X, for the leading
    columns of X before the first numerically dependent one: column j is
    dependent when |r_jj| <= 1e-12 ||r_j||, and ||r_j|| = ||x_j||. Column i
    of the result reads only the leading i columns of R and Y."""
    diag = np.abs(np.diag(R))
    dependent = diag <= 1e-12 * np.linalg.norm(R[:, :diag.size], axis=0)
    j = int(np.argmax(dependent)) if dependent.any() else diag.size
    return scipy.linalg.solve_triangular(R[:j, :j], Y[:, :j].T, trans="T").T


def _embedding_error(sv, eps_star: float) -> float:
    """max{1 - (1 - eps*) sigma_min^2, (1 + eps*) sigma_max^2 - 1} for the
    singular values sv, in descending order, of a whitened sketch; with
    eps* = 0 this is the exact omega."""
    return max(1.0 - (1.0 - eps_star) * sv[-1]**2,
               (1.0 + eps_star) * sv[0]**2 - 1.0)


def omega_bar(V_theta, V_phi, eps_star: float) -> float:
    """Certified upper bound on the embedding error of Theta on range(V).

    V_theta = Theta V and V_phi = Phi V are the two sketches of the same
    matrix. The orthonormalizing map X = R^{-1} from the QR of V_theta is
    applied implicitly by a triangular solve.
    """
    # copies, 1-D sketches as one column: `_triangular` overwrites V_theta
    V_theta, V_phi = (np.array(V, dtype=np.float64).reshape(len(V), -1)
                      for V in (V_theta, V_phi))
    if V_theta.shape[1] != V_phi.shape[1]:
        raise ValueError("sketches have different column counts")
    B = _whiten(_triangular(V_theta), V_phi)
    if B.shape[1] < V_phi.shape[1]:
        raise np.linalg.LinAlgError("Theta-sketch is numerically rank deficient")
    return _embedding_error(np.linalg.svd(B, compute_uv=False), eps_star)

