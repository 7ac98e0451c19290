"""Experiment runners: QR stability benchmarks, GMRES benchmarks, and
embedding certification sweeps, all emitting `ExperimentReport`s.

Each runner factorizes first and then reads every per-iteration trace
(condition numbers, loss of orthogonality, omega, omega_bar) from the
singular values of the leading blocks of triangular factors: each traced
matrix gets one binary64 Householder QR, backward stable, so a trace is
accurate to about u64 cond, not u64 cond^2 as from a Gram matrix, and no
large-matrix SVD is ever taken.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .certification import _embedding_error, _triangular, _whiten
from .gram_schmidt import GsVariant, classical_factorize, rgs_factorize
from .io import (ExperimentReport, generate_laplacian_2d,
                 generate_random_sparse, read_matrix_market, synthetic_matrix)
from .krylov import SparseMatrix, gmres, ilu0
from .precision import PrecisionPolicy, policy_from_name
from .sketch import SketchKind, SketchOperator

__all__ = ["RunConfig", "run_qr_bench", "run_gmres_bench", "run_certify",
           "load_matrix_source"]


@dataclass
class RunConfig:
    """Experiment settings; `COMMAND_FIELDS` says what each command reads."""

    n: int = 100_000
    m: int = 300
    k: int = 5000
    sketch_kind: SketchKind = SketchKind.PSRHT
    seed: int = 0
    policy: str = "mixed"
    variants: tuple = (GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2, GsVariant.RGS)
    matrix: str = "synthetic"
    eps_star: float = 0.05
    delta_star: float = 1e-3
    k_phi: int | None = None
    phi_seed: int = 0x0F1A
    precond: bool = False
    tol: float | None = None

    def policy_obj(self) -> PrecisionPolicy:
        return policy_from_name(self.policy)

    def phi_dim(self) -> int:
        """Rows of the certification sketch Phi: k_phi, or k when unset."""
        return self.k_phi or self.k


# The RunConfig fields each command reads: its CLI options, and the settings
# its reports record.
COMMAND_FIELDS = {
    "qr-bench": ("n", "m", "k", "sketch_kind", "seed", "policy", "variants",
                 "matrix", "eps_star", "k_phi", "phi_seed"),
    "gmres-bench": ("m", "k", "sketch_kind", "seed", "policy", "variants",
                    "matrix", "precond", "tol"),
    "certify": ("n", "m", "k", "sketch_kind", "seed", "policy", "matrix",
                "eps_star", "k_phi", "phi_seed"),
}


def _metadata(config: RunConfig, command: str, n: int, variant: GsVariant,
              wall: float) -> dict:
    """The settings a report's rows depend on: the fields `command` reads, the
    sketch by name, k_phi as Phi's rows, the n and the variant actually run."""
    meta = {f: getattr(config, f) for f in COMMAND_FIELDS[command]
            if f not in ("sketch_kind", "variants")}
    if "k_phi" in meta:
        meta["k_phi"] = config.phi_dim()
    return {**meta, "n": n, "variant": variant.value,
            "sketch": config.sketch_kind.value, "wall_time": f"{wall:.3f}"}


def load_matrix_source(spec: str, seed: int = 0) -> SparseMatrix:
    """Resolve `path.mtx`, `laplacian:SIZE`, or `randsparse:N[:NNZ]`."""
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    if spec.startswith("laplacian:"):
        return generate_laplacian_2d(int(spec.split(":", 1)[1]))
    if spec.startswith("randsparse:"):
        parts = spec.split(":")[1:]
        n = int(parts[0])
        nnz = int(parts[1]) if len(parts) > 1 else 8
        return generate_random_sparse(n, nnz, seed)
    raise ValueError(f"unrecognized matrix source {spec!r}")


def _leading_svals(R) -> list:
    """Singular values, descending, of each leading i x i block of the
    triangular factor R of an n x m matrix X: those of X[:, :i], i = 1 .. m
    (min(n, i) of them)."""
    return [np.linalg.svd(R[:i, :i], compute_uv=False)
            for i in range(1, R.shape[1] + 1)]


def _cond(svals) -> np.ndarray:
    return np.array([sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
                     for sv in svals])


def _embedding_trace(B, eps_star: float, m: int) -> np.ndarray:
    """Embedding error of the leading i columns of the whitened sketch B,
    i = 1 .. m; the rows past B's last column read inf."""
    errs = [_embedding_error(sv, eps_star)
            for sv in _leading_svals(_triangular(B))]
    return np.array(errs + [np.inf] * (m - len(errs)))


def _traces(Q, S=None, theta: SketchOperator | None = None,
            phi: SketchOperator | None = None, eps_star: float = 0.0) -> dict:
    """Per-iteration traces of a finished factorization, as report columns.

    A column of Q or S never changes once written, so row i of each trace
    depends only on the leading i columns. Each matrix gets one binary64
    Householder QR, and row i is read from the singular values of the
    leading i x i block of its triangular factor:

    - cond_Q, and the loss of orthogonality ||I - Q_i^T Q_i||_F as
      ||1 - sigma^2||_2, from R_Q (always);
    - cond_S from R_S (with S);
    - omega_bar from B = (Phi Q) R_S^-1 (with S, phi); its rows from a
      numerically dependent column of S onward read inf;
    - the exact omega from Theta U = (Theta Q) R_Q^-1 (with theta), whose
      leading i columns sketch an orthonormal basis U_i of span Q_i. U is
      never formed.
    """
    Q64 = np.array(Q, dtype=np.float64, order="F")  # the one binary64 copy
    phi_q = phi.apply_block(Q64) if phi is not None and S is not None else None
    theta_q = theta.apply_block(Q64) if theta is not None else None
    R_Q = _triangular(Q64)  # overwrites Q64 with its factorization
    m = R_Q.shape[1]
    svals = _leading_svals(R_Q)
    out = {"cond_Q": _cond(svals),
           "loss_of_orthogonality": np.array(
               [np.linalg.norm(1.0 - sv**2) for sv in svals])}
    if S is not None:
        R_S = _triangular(np.array(S, dtype=np.float64, order="F"))
        out["cond_S"] = _cond(_leading_svals(R_S))
        if phi_q is not None:
            out["omega_bar"] = _embedding_trace(_whiten(R_S, phi_q),
                                                eps_star, m)
    if theta_q is not None:
        SU = _whiten(R_Q, theta_q)
        if SU.shape[1] < m:
            raise np.linalg.LinAlgError(
                f"column {SU.shape[1] + 1} of Q is numerically dependent "
                "on the columns before it")
        out["omega"] = _embedding_trace(SU, 0.0, m)
    return out


def _bench_columns(config: RunConfig) -> np.ndarray:
    if config.matrix == "synthetic":
        return synthetic_matrix(config.n, config.m)
    A = load_matrix_source(config.matrix, config.seed)
    if config.m > A.n:
        raise ValueError("more columns requested than the matrix has")
    return np.asarray(A.to_scipy()[:, :config.m].todense())


def run_qr_bench(config: RunConfig) -> dict:
    """Factorize the same W under every requested variant.

    Returns {variant name: ExperimentReport} with per-iteration cond(Q_i),
    cond(W_i), relative factorization error, loss of orthogonality, and for
    the randomized variant also cond(S_i), omega and omega_bar traces.
    """
    policy = config.policy_obj()
    W = _bench_columns(config)
    w_frob2 = np.cumsum(np.einsum("ij,ij->j", W, W))
    runs = []
    for variant in config.variants:
        t0 = time.perf_counter()
        if variant is GsVariant.RGS:
            f, cols = _rgs_traces(W, config, policy)
        else:
            # guard off, as for the randomized run
            f = classical_factorize(W, variant, policy, breakdown_factor=0.0)
            cols = _traces(f.Q)
        E = f.Q.astype(np.float64) @ f.R
        E -= W
        cols["factorization_error"] = np.sqrt(
            np.cumsum(np.einsum("ij,ij->j", E, E)) / w_frob2)
        runs.append((variant, cols, time.perf_counter() - t0))
    # cond(W_i) is variant independent, read once the factorizations have
    # rejected a non-finite W
    cond_w = _cond(_leading_svals(
        _triangular(np.array(W, dtype=np.float64, order="F"))))
    reports = {}
    for variant, cols, wall in runs:
        report = ExperimentReport()
        for i in range(W.shape[1]):
            report.add_row(i + 1, cond_W=cond_w[i],
                           **{c: v[i] for c, v in cols.items()})
        report.metadata.update(_metadata(config, "qr-bench", W.shape[0],
                                         variant, wall))
        reports[variant.value] = report
    return reports


def _rgs_traces(W, config: RunConfig, policy: PrecisionPolicy):
    """Randomized factorization of W and its traces, certification included."""
    n = W.shape[0]
    theta = SketchOperator(config.sketch_kind, config.k, n, config.seed)
    phi = SketchOperator(config.sketch_kind, config.phi_dim(), n,
                         config.phi_seed)
    # benchmark protocol: run straight through numerically singular
    # columns (breakdown guard off), like the experiments being traced
    f, _ = rgs_factorize(W, theta, policy, with_certificate=False,
                         breakdown_factor=0.0)
    return f, _traces(f.Q, f.S, theta, phi, config.eps_star)


def run_gmres_bench(config: RunConfig) -> dict:
    """GMRES on the configured sparse system under every requested variant.

    The right-hand side is b = A y / ||A y|| with y the all-ones vector.
    Returns {variant name: (ExperimentReport, GmresResult)} with the
    estimated residual and cond(Q_i) per iteration, under every variant.
    Without a tolerance the report's metadata has no `converged` entry.
    """
    A = load_matrix_source(config.matrix, config.seed)
    y = np.ones(A.n)
    ay = A.matvec(y)
    b = ay / np.linalg.norm(ay)
    policy = config.policy_obj()
    precond = ilu0(A) if config.precond else None
    out = {}
    for variant in config.variants:
        t0 = time.perf_counter()
        theta = None
        if variant is GsVariant.RGS:
            theta = SketchOperator(config.sketch_kind, config.k, A.n, config.seed)
        result = gmres(A, b, config.m, variant=variant, theta=theta,
                       policy=policy, preconditioner=precond, tol=config.tol)
        report = ExperimentReport()
        history = result.residual_history
        cond_q = _traces(result.factors.Q[:, :len(history)])["cond_Q"]
        for i, est in enumerate(history):
            report.add_row(i + 1, residual_norm=float(est), cond_Q=cond_q[i])
        report.metadata.update(
            _metadata(config, "gmres-bench", A.n, variant,
                      time.perf_counter() - t0),
            final_residual=f"{result.final_residual:.17g}",
            iterations=result.iterations, breakdown=result.breakdown)
        if result.converged is not None:  # absent without a tolerance
            report.metadata["converged"] = result.converged
        out[variant.value] = (report, result)
    return out


def run_certify(config: RunConfig) -> ExperimentReport:
    """Randomized factorization with full certification traces.

    Runs the randomized variant only and records per-iteration omega (exact,
    from a binary64 oracle basis), omega_bar and cond(S_i).
    """
    policy = config.policy_obj()
    W = _bench_columns(config)
    t0 = time.perf_counter()
    _, cols = _rgs_traces(W, config, policy)
    report = ExperimentReport()
    for i in range(W.shape[1]):
        report.add_row(i + 1, **{c: cols[c][i]
                                 for c in ("omega", "omega_bar", "cond_S")})
    report.metadata.update(_metadata(config, "certify", W.shape[0],
                                     GsVariant.RGS, time.perf_counter() - t0))
    return report
