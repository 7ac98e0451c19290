"""A-posteriori certification of the embedding quality of a sketch, and the
one formula for each quantity read from a sketched matrix.

The exact embedding error of Theta on range(V), with U an orthonormal basis,

    omega = max{1 - sigma_min(Theta U)^2, sigma_max(Theta U)^2 - 1},

is unobservable at scale (it needs the n-dimensional V). Instead we bound it
using a second, statistically independent sketch Phi that only has to embed
single vectors: with probability >= 1 - delta*,

    omega <= omega_bar = max{1 - (1 - eps*) sigma_min(V_phi X)^2,
                             (1 + eps*) sigma_max(V_phi X)^2 - 1},

where X orthonormalizes V_theta = Theta V. cond, the loss of orthogonality,
omega (`epsilon_of`) and omega_bar are read, for `certificates` and the
traces alike, from one binary64 Householder QR per matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["omega_bar", "epsilon_of"]


def _triangular(X) -> np.ndarray:
    """The triangular factor R, min(n, m) x m, of one binary64 Householder
    QR of the n x m matrix X, so that X[:, :i] and R[:i, :i] share their
    nonzero singular values. A binary64 Fortran-ordered X is overwritten
    by its factorization."""
    return scipy.linalg.qr(X, overwrite_a=True, mode="raw")[1]


def _cond(sv) -> float:
    """sigma_max / sigma_min of descending singular values sv; inf if singular."""
    return float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf


def _loss(sv) -> float:
    """||I - X^T X||_F = ||1 - sigma^2||_2 for the singular values sv of an
    n x m matrix X, all m of them: a wide X's m - n zero ones included."""
    return float(np.linalg.norm(1.0 - sv**2))


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


def _whitened_error(R, Y, eps_star: float) -> float:
    """`_embedding_error` of Y R^-1 for the triangular factor R of a matrix
    X; raises LinAlgError at the first numerically dependent column of X."""
    B = _whiten(R, Y)
    if B.shape[1] < Y.shape[1]:
        raise np.linalg.LinAlgError(f"column {B.shape[1] + 1} is dependent")
    return _embedding_error(np.linalg.svd(B, compute_uv=False), eps_star)


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
    return _whitened_error(_triangular(V_theta), V_phi, eps_star)


def epsilon_of(theta, V) -> float:
    """The exact omega of the sketch theta on range(V), as in the omega
    trace: `omega_bar` with V for Theta V, theta for Phi and eps* = 0, so
    Theta V is whitened by the factor of one binary64 QR of V (a copy); a
    value above 1 means no epsilon < 1 embedding holds."""
    return omega_bar(V, theta.apply_block(V), 0.0)
