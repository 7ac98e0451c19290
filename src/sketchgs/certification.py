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

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .gram_schmidt import QrFactors
from .sketch import SketchOperator

__all__ = ["CertificationResult", "omega_bar", "certify_factorization"]


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


@dataclass
class CertificationResult:
    eps_star: float
    omega_bar_q: float
    omega_bar_w: float
    margin_q: float
    margin_w: float
    margin_ok_q: bool
    margin_ok_w: bool


def certify_factorization(factors: QrFactors, W, phi: SketchOperator,
                          eps_star: float) -> CertificationResult:
    """Certify the embedding of Theta on range(Q) and range(W).

    `factors` come from the randomized process (they hold S = Theta Q and
    P = Theta W); Phi is applied here to the stored Q and to W. The
    rounding-margin check requires u_crs * cond(V_phi) to be small relative
    to the certified quantity, with u_crs the unit roundoff of the format Q
    is stored in; `margin_ok_*` is False when the finite-precision slack
    could dominate the bound.
    """
    if factors.S is None or factors.P is None:
        raise ValueError("certification needs the sketches S and P "
                         "(randomized factors)")
    if phi.n != factors.Q.shape[0]:
        raise ValueError("certification sketch has mismatched ambient dimension")
    phi_q = phi.apply_block(factors.Q)
    phi_w = phi.apply_block(W)
    ob_q = omega_bar(factors.S, phi_q, eps_star)
    ob_w = omega_bar(factors.P, phi_w, eps_star)
    u_crs = float(np.finfo(factors.Q.dtype).eps / 2)
    margin_q = u_crs * float(np.linalg.cond(phi_q))
    margin_w = u_crs * float(np.linalg.cond(phi_w))
    return CertificationResult(
        eps_star=eps_star,
        omega_bar_q=ob_q, omega_bar_w=ob_w,
        margin_q=margin_q, margin_w=margin_w,
        margin_ok_q=margin_q <= 0.1 * max(abs(ob_q), eps_star),
        margin_ok_w=margin_w <= 0.1 * max(abs(ob_w), eps_star),
    )
