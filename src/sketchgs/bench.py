"""Experiment runners: QR stability benchmarks, GMRES benchmarks, and
embedding certification sweeps, all emitting `ExperimentReport`s.

Each runner factorizes first and then reads every per-iteration trace
(condition numbers, loss of orthogonality, omega, omega_bar) from the
leading blocks of Gram matrices of the finished factors, with one small
symmetric eigensolve per iteration and never a large-matrix SVD.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .certification import (CertificationParams, _whiten,
                            make_certification_sketch)
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
    """Parsed experiment configuration shared by all subcommands."""

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


def _leading_eigs(G) -> list:
    """Eigenvalues of each leading i x i block of G, for i = 1 .. m."""
    return [scipy.linalg.eigh(G[:i, :i], eigvals_only=True)
            for i in range(1, len(G) + 1)]


def _cond_trace(G) -> np.ndarray:
    out = []
    for lam in _leading_eigs(G):
        lo = max(lam[0], 0.0)
        out.append(np.inf if lo == 0.0 else float(np.sqrt(lam[-1] / lo)))
    return np.array(out)


def _traces(Q, S=None, theta: SketchOperator | None = None,
            phi: SketchOperator | None = None, eps_star: float = 0.0) -> dict:
    """Per-iteration traces of a finished factorization, as report columns.

    A column of Q or S never changes once written, so row i of each trace
    depends only on the leading i columns and is read from the leading
    i x i block of one Gram matrix:

    - cond_Q and loss_of_orthogonality from Q^T Q (always);
    - cond_S from S^T S (with S);
    - omega_bar from B^T B, B = (Phi Q) R_S^-1 with R_S from a binary64 QR
      of S (with S, phi); its rows from a numerically dependent column of S
      onward read inf;
    - the exact omega from (Theta U)^T (Theta U) (with theta), where
      Theta U = (Theta Q) R^-1 and R comes from one binary64 Householder QR
      of Q, whose leading i columns of U span Q_i. U is never formed.
    """
    Q64 = np.array(Q, dtype=np.float64, order="F")  # the one binary64 copy
    G = Q64.T @ Q64
    m = len(G)
    out = {"cond_Q": _cond_trace(G),
           "loss_of_orthogonality": np.array(
               [np.linalg.norm(np.eye(i) - G[:i, :i]) for i in range(1, m + 1)])}
    if S is not None:
        S64 = np.array(S, dtype=np.float64)  # a copy: `_whiten` may overwrite
        out["cond_S"] = _cond_trace(S64.T @ S64)
        if phi is not None:
            B = _whiten(S64, phi.apply_block(Q64))
            out["omega_bar"] = np.array(
                [max(1.0 - (1.0 - eps_star) * lam[0],
                     (1.0 + eps_star) * lam[-1] - 1.0)
                 for lam in _leading_eigs(B.T @ B)]
                + [np.inf] * (m - B.shape[1]))
    if theta is not None:
        SQ = theta.apply_block(Q64)
        SU = _whiten(Q64, SQ)  # overwrites Q64 with its factorization
        if SU.shape[1] < m:
            raise np.linalg.LinAlgError(
                f"column {SU.shape[1] + 1} of Q is numerically dependent "
                "on the columns before it")
        out["omega"] = np.array([max(1.0 - lam[0], lam[-1] - 1.0)
                                 for lam in _leading_eigs(SU.T @ SU)])
    return out


def _qr_metadata(config: RunConfig, n: int, variant: GsVariant,
                 wall: float) -> dict:
    return {"seed": config.seed, "k": config.k, "n": n, "m": config.m,
            "policy": config.policy, "variant": variant.value,
            "sketch": config.sketch_kind.value, "matrix": config.matrix,
            "wall_time": f"{wall:.3f}"}


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
    cond_w = _cond_trace(W.T @ W)
    reports = {}
    for variant, cols, wall in runs:
        report = ExperimentReport()
        for i in range(W.shape[1]):
            report.add_row(i + 1, cond_W=cond_w[i],
                           **{c: v[i] for c, v in cols.items()})
        report.metadata.update(_qr_metadata(config, W.shape[0], variant,
                                            wall))
        reports[variant.value] = report
    return reports


def _rgs_traces(W, config: RunConfig, policy: PrecisionPolicy):
    """Randomized factorization of W and its traces, certification included."""
    n = W.shape[0]
    theta = SketchOperator(config.sketch_kind, config.k, n, config.seed)
    cert = CertificationParams(config.eps_star, config.delta_star,
                               config.phi_seed, config.phi_dim())
    phi = make_certification_sketch(cert, n, kind=config.sketch_kind)
    # benchmark protocol: run straight through numerically singular
    # columns (breakdown guard off), like the experiments being traced
    f, _ = rgs_factorize(W, theta, policy, with_certificate=False,
                         breakdown_factor=0.0)
    return f, _traces(f.Q, f.S, theta, phi, config.eps_star)


def run_gmres_bench(config: RunConfig, m: int | None = None) -> dict:
    """GMRES on the configured sparse system under every requested variant.

    The right-hand side is b = A y / ||A y|| with y the all-ones vector.
    Returns {variant name: (ExperimentReport, GmresResult)} with the
    estimated residual and cond(Q_i) per iteration, under every variant.
    Without a tolerance the report's metadata has no `converged` entry.
    """
    if m is None:
        m = config.m
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
        result = gmres(A, b, m, variant=variant, theta=theta, policy=policy,
                       preconditioner=precond, tol=config.tol)
        report = ExperimentReport()
        history = result.residual_history
        cond_q = _traces(result.factors.Q[:, :len(history)])["cond_Q"]
        for i, est in enumerate(history):
            report.add_row(i + 1, residual_norm=float(est), cond_Q=cond_q[i])
        report.metadata.update(_qr_metadata(config, A.n, variant,
                                            time.perf_counter() - t0))
        report.metadata.update({"m": m, "precond": config.precond,
                                "final_residual": f"{result.final_residual:.17g}",
                                "tol": config.tol, "iterations": result.iterations,
                                "breakdown": result.breakdown})
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
    report.metadata.update(_qr_metadata(config, W.shape[0], GsVariant.RGS,
                                        time.perf_counter() - t0))
    report.metadata.update({"eps_star": config.eps_star,
                            "delta_star": config.delta_star,
                            "k_phi": config.phi_dim(),
                            "phi_seed": config.phi_seed})
    return report
