"""A-posteriori certification of a sketched factorization and of the
embedding quality of a sketch: the one module that reads Delta, cond, omega
or omega_bar from a sketched matrix, with one formula for each. It reads
sketches only; the one operator it applies is the exact-omega oracle's.

The exact embedding error of Theta on range(V), with U an orthonormal basis,

    omega = max{1 - sigma_min(Theta U)^2, sigma_max(Theta U)^2 - 1},

is unobservable at scale (it needs the n-dimensional V). Instead we bound it
using a second, statistically independent sketch Phi that only has to embed
single vectors: with probability >= 1 - delta*,

    omega <= omega_bar = max{1 - (1 - eps*) sigma_min(V_phi X)^2,
                             (1 + eps*) sigma_max(V_phi X)^2 - 1},

where X orthonormalizes V_theta = Theta V; applied to Q's extreme right
singular vectors, the same property encloses sigma(Q) from Phi Q alone.
Each reading comes from one binary64 Householder QR per matrix, backward
stable, so it is accurate to about u64 cond, not u64 cond^2 as from a Gram
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = ["StabilityCertificate", "certificates", "loss_of_orthogonality",
           "omega_bar", "epsilon_of"]


@dataclass
class StabilityCertificate:
    """A-posteriori stability data of a sketched factorization, built by
    `certificates`; given the sketch Phi Q also omega_bar_q, the certified
    bound on Theta's embedding error on range(Q), the rounding margin with
    its check, and sigma_q = (lo, hi) around sigma(Q); else None."""

    delta_m: float
    delta_tilde_m: float
    cond_S: float
    eps_star: float | None = None
    omega_bar_q: float | None = None
    margin_q: float | None = None
    margin_ok_q: bool | None = None
    sigma_q: tuple[float, float] | None = None

    def passes_gate(self) -> bool:
        """The Delta_m, Delta~_m <= 0.1 hypothesis of the stability theorem."""
        return self.delta_m <= 0.1 and self.delta_tilde_m <= 0.1


def _checked(name: str, X) -> np.ndarray:
    """X as an array, refused by name if complex (numpy would keep its real
    part) or if it holds a NaN or an infinity."""
    X = np.asarray(X)
    if np.iscomplexobj(X):
        raise TypeError(f"complex input ({X.dtype}) for {name}: it must be real")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} has a NaN or infinite entry")
    return X


def _triangular(X) -> np.ndarray:
    """The triangular factor R, min(n, m) x m, of one binary64 Householder
    QR of the n x m matrix X, so that X[:, :i] and R[:i, :i] share their
    nonzero singular values. The QR overwrites a binary64 Fortran-ordered
    copy of X, never X."""
    X64 = np.array(X, dtype=np.float64, order="F")
    return scipy.linalg.qr(X64, overwrite_a=True, mode="raw")[1]


def _svals(X) -> np.ndarray:
    """Descending singular values of X, all X.shape[1]: a wide X's zeros too."""
    sv = np.linalg.svd(X, compute_uv=False)
    return np.pad(sv, (0, X.shape[1] - sv.size))


def _cond(sv) -> float:
    """sigma_max / sigma_min of descending singular values sv; inf if singular."""
    return float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf


def _loss(sv) -> float:
    """||I - X^T X||_F = ||1 - sigma^2||_2 for all m singular values sv of X."""
    return float(np.linalg.norm(1.0 - sv**2))


def _whiten(R, Y, whole: bool = True) -> np.ndarray:
    """Y R^-1 for the triangular factor R of a matrix X, for the leading
    columns of X before the first numerically dependent one: column j is
    dependent when |r_jj| <= 1e-12 ||r_j||, and ||r_j|| = ||x_j||. With
    `whole`, a dependent column raises LinAlgError instead. Column i of the
    result reads only the leading i columns of R and Y."""
    diag = np.abs(np.diag(R))
    dependent = diag <= 1e-12 * np.linalg.norm(R[:, :diag.size], axis=0)
    j = int(np.argmax(dependent)) if dependent.any() else diag.size
    if whole and j < Y.shape[1]:
        raise np.linalg.LinAlgError(f"column {j + 1} is dependent")
    return scipy.linalg.solve_triangular(R[:j, :j], Y[:, :j].T, trans="T").T


def _distortion(eps_star: float) -> tuple[float, float]:
    """(1 -+ eps*), how far Phi may scale a fixed ||x||^2; eps* in [0, 1)."""
    if eps_star is None or not 0.0 <= eps_star < 1.0:
        raise ValueError(f"eps_star must lie in [0, 1), got {eps_star}")
    return 1.0 - eps_star, 1.0 + eps_star


def _embedding_error(sv, eps_star: float) -> float:
    """max{1 - (1 - eps*) sigma_min^2, (1 + eps*) sigma_max^2 - 1} for the
    singular values sv, in descending order, of a whitened sketch; with
    eps* = 0 this is the exact omega."""
    shrink, stretch = _distortion(eps_star)
    return max(1.0 - shrink * sv[-1]**2, stretch * sv[0]**2 - 1.0)


def omega_bar(V_theta, V_phi, eps_star: float) -> float:
    """Certified upper bound on the embedding error of Theta on range(V).

    V_theta = Theta V and V_phi = Phi V are the two sketches of the same
    matrix. The orthonormalizing map X = R^{-1} from the QR of V_theta is
    applied implicitly by a triangular solve.
    """
    V_theta, V_phi = (_checked(name, V).astype(np.float64, copy=False)
                      .reshape(len(V), -1)  # 1-D as one column
                      for name, V in (("V_theta", V_theta), ("V_phi", V_phi)))
    if V_theta.shape[1] != V_phi.shape[1]:
        raise ValueError("sketches have different column counts")
    B = _whiten(_triangular(V_theta), V_phi)
    return _embedding_error(_svals(B), eps_star)


def epsilon_of(theta, V) -> float:
    """The exact omega of the sketch theta on range(V), as in the omega
    trace: `omega_bar` with V for Theta V, theta for Phi and eps* = 0, so
    Theta V is whitened by the factor of one binary64 QR of V; a value
    above 1 means no epsilon < 1 embedding holds."""
    return omega_bar(V, theta.apply_block(V), 0.0)


def certificates(factors, phi_q=None,
                 eps_star: float | None = None) -> StabilityCertificate:
    """Delta_m, Delta~_m and cond(S) of a sketched factorization (`QrFactors`
    with S and P) in binary64, Delta_m and cond(S) from one QR of S.

    Given phi_q = Phi Q, with Phi drawn independently of the factors and
    embedding single vectors to accuracy `eps_star` with probability
    >= 1 - delta*, also omega_bar_q, Phi Q whitened by R_S (inf, with its
    check False, when S is numerically rank deficient), and from one SVD of
    Phi Q the margin u_crs cond(Phi Q), u_crs the unit roundoff of Q's
    format, and sigma_q = (lo, hi): Q's right singular vectors for sigma_max
    and sigma_min are fixed before Phi is drawn, so with probability
    >= 1 - 2 delta* Phi keeps both images' squared norms within (1 -+ eps*),
    whence sigma_max(Q) <= sigma_max(Phi Q) / sqrt(1 - eps*) and
    sigma_min(Q) >= sigma_min(Phi Q) / sqrt(1 + eps*). Rounding: the binary64
    Phi Q, sums of n products, is within gamma_n ||Phi||_F ||Q||_F <=
    n sqrt(n m) u64 sigma_max(Q) of the exact one (||Phi||_F = sqrt(n) for
    both sketch families and Phi = I), and its QR and SVD add about
    k_phi m sqrt(m) u64 sigma_max(Phi Q); so lo and hi widen by tau
    sigma_max(Phi Q), tau = 2 u64 (n sqrt(n) + k_phi m) sqrt(m) /
    sqrt(1 - eps*). lo is not clipped: lo <= 0 bounds nothing.
    """
    if factors.S is None or factors.P is None:
        raise ValueError("certificates need the sketches S and P (randomized factors)")
    n, m = len(factors.Q), factors.S.shape[1]
    if m == 0:
        raise ValueError("certificates need a factorization with at least one column")
    if phi_q is not None and (phi_q := _checked("phi_q", phi_q)).shape[1:] != (m,):
        raise ValueError(f"phi_q must be a sketch of Q, a matrix with its {m} columns")
    S = factors.S.astype(np.float64, copy=False)
    P = factors.P.astype(np.float64, copy=False)
    E = S @ factors.R  # -E keeps the norm's bits
    E -= P
    delta_tilde = float(np.linalg.norm(E) / np.linalg.norm(P))
    del E  # freed before the QR's copy of S: one k x m temporary at a time
    R_S = _triangular(S)
    sv = _svals(R_S)
    cert = StabilityCertificate(delta_m=_loss(sv), delta_tilde_m=delta_tilde,
                                cond_S=_cond(sv))
    if phi_q is None:
        return cert
    shrink, stretch = _distortion(eps_star)
    sv_phi = _svals(_triangular(phi_q))
    cert.eps_star = eps_star
    cert.margin_q = float(np.finfo(factors.Q.dtype).eps / 2) * _cond(sv_phi)
    try:
        cert.omega_bar_q = _embedding_error(_svals(_whiten(R_S, phi_q)),
                                            eps_star)
        cert.margin_ok_q = bool(
            cert.margin_q <= 0.1 * max(abs(cert.omega_bar_q), eps_star))
    except np.linalg.LinAlgError:
        cert.omega_bar_q, cert.margin_ok_q = np.inf, False
    tau = (n**1.5 + len(phi_q) * m) * m**0.5 * np.finfo(float).eps / shrink**0.5
    cert.sigma_q = (float((sv_phi[-1] - tau * sv_phi[0]) / stretch**0.5),
                    float((1.0 + tau) * sv_phi[0] / shrink**0.5))
    return cert


def loss_of_orthogonality(X) -> float:
    """||I - X^T X||_F from one binary64 QR of X, whatever X's format."""
    return _loss(_svals(_triangular(_checked("X", X))))


def _leading_svals(R) -> list:
    """`_svals` of each leading i x i block of the triangular factor R of an
    n x m matrix X: those of X[:, :i], i = 1 .. m."""
    return [_svals(R[:i, :i]) for i in range(1, R.shape[1] + 1)]


def _embedding_trace(B, eps_star: float, m: int) -> np.ndarray:
    """Embedding error of the leading i columns of the whitened sketch B,
    i = 1 .. m; the rows past B's last column read inf."""
    errs = [_embedding_error(sv, eps_star)
            for sv in _leading_svals(_triangular(B))]
    return np.array(errs + [np.inf] * (m - len(errs)))


def traces(Q, S=None, theta_q=None, phi_q=None, eps_star: float = 0.0,
           cond_q: bool = True) -> dict:
    """Per-iteration traces of a finished factorization, as report columns.

    A column of Q or S never changes once written, so row i of each trace
    depends only on the leading i columns. Each matrix gets one binary64
    Householder QR, and row i is read from the singular values of the
    leading i x i block of its triangular factor:

    - cond_Q and the loss of orthogonality from R_Q (with cond_q);
    - cond_S from R_S (with S);
    - omega_bar from B = (Phi Q) R_S^-1 (with S, phi_q); its rows from a
      numerically dependent column of S onward read inf;
    - the exact omega from Theta U = (Theta Q) R_Q^-1 (with theta_q), whose
      leading i columns sketch an orthonormal basis U_i of span Q_i. U is
      never formed; a numerically dependent column of Q raises LinAlgError.

    It takes the sketches theta_q = Theta Q and phi_q = Phi Q, as `omega_bar`
    does, not the operators, so a caller can drop Theta before the QRs.
    """
    R_Q = _triangular(Q)
    m = R_Q.shape[1]
    out = {}
    if cond_q:
        svals = _leading_svals(R_Q)
        out = {"cond_Q": np.array([_cond(sv) for sv in svals]),
               "loss_of_orthogonality": np.array([_loss(sv) for sv in svals])}
    if S is not None:
        R_S = _triangular(S)
        out["cond_S"] = np.array([_cond(sv) for sv in _leading_svals(R_S)])
        if phi_q is not None:
            out["omega_bar"] = _embedding_trace(
                _whiten(R_S, phi_q, whole=False), eps_star, m)
    if theta_q is not None:
        out["omega"] = _embedding_trace(_whiten(R_Q, theta_q), 0.0, m)
    return out
