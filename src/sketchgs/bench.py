"""Experiment runners: QR stability benchmarks, GMRES benchmarks, and
embedding certification sweeps, all emitting `ExperimentReport`s.

Per-iteration condition numbers are obtained from incrementally updated Gram
matrices followed by small symmetric eigensolves, never from repeated
large-matrix SVDs, so the default benchmark scales run in minutes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .certification import CertificationParams, make_certification_sketch
from .gram_schmidt import (ClassicalGsState, GsVariant, HOUSEHOLDER_QR,
                           LsqSolver, RgsState, classical_factorize)
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
    ls_solver: LsqSolver = HOUSEHOLDER_QR
    precond: bool = False
    tol: float | None = None

    def policy_obj(self) -> PrecisionPolicy:
        return policy_from_name(self.policy)


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


class _GramTrace:
    """cond and orthogonality traces of a growing column set via its Gram
    matrix, updated in O(n i) per new column."""

    def __init__(self, n: int, capacity: int):
        self.cols = np.zeros((n, capacity))
        self.G = np.zeros((capacity, capacity))
        self.i = 0

    def push(self, v) -> None:
        i = self.i
        v = np.asarray(v, dtype=np.float64)
        prods = self.cols[:, :i].T @ v
        self.G[:i, i] = prods
        self.G[i, :i] = prods
        self.G[i, i] = v @ v
        self.cols[:, i] = v
        self.i = i + 1

    def cond(self) -> float:
        lam = scipy.linalg.eigvalsh(self.G[:self.i, :self.i])
        lo = max(lam[0], 0.0)
        if lo == 0.0:
            return np.inf
        return float(np.sqrt(lam[-1] / lo))

    def orthogonality_loss(self) -> float:
        i = self.i
        return float(np.linalg.norm(np.eye(i) - self.G[:i, :i]))


class _OmegaTrace:
    """Exact embedding error of theta on the span of a growing column set.

    Maintains a binary64 orthonormal basis U of the span (CGS2 updates) and
    the Gram matrix of theta @ U; omega_i comes from its extreme eigenvalues.
    """

    def __init__(self, theta: SketchOperator, capacity: int):
        self.theta = theta
        self.U = np.zeros((theta.n, capacity))
        self.SU = np.zeros((theta.k, capacity))
        self.G = np.zeros((capacity, capacity))
        self.i = 0

    def push(self, v) -> None:
        i = self.i
        u = np.asarray(v, dtype=np.float64).copy()
        for _ in range(2):
            u -= self.U[:, :i] @ (self.U[:, :i].T @ u)
        nu = np.linalg.norm(u)
        if nu < 1e-12 * np.linalg.norm(v):
            # numerically dependent column: the span (and omega) are unchanged
            return
        u /= nu
        su = self.theta.apply(u)
        prods = self.SU[:, :i].T @ su
        self.G[:i, i] = prods
        self.G[i, :i] = prods
        self.G[i, i] = su @ su
        self.U[:, i] = u
        self.SU[:, i] = su
        self.i = i + 1

    def omega(self) -> float:
        lam = scipy.linalg.eigvalsh(self.G[:self.i, :self.i])
        return float(max(1.0 - lam[0], lam[-1] - 1.0))


class _OmegaBarTrace:
    """Certified bound trace from the two sketches of the same columns.

    With G_theta = S^T S and G_phi = S_phi^T S_phi, the singular values of
    V_phi X (X the orthonormalizer of S) are the generalized eigenvalues of
    the pencil (G_phi, G_theta).
    """

    def __init__(self, k: int, k_phi: int, eps_star: float, capacity: int):
        self.S = np.zeros((k, capacity))
        self.Sp = np.zeros((k_phi, capacity))
        self.Gt = np.zeros((capacity, capacity))
        self.Gp = np.zeros((capacity, capacity))
        self.eps_star = eps_star
        self.i = 0

    def push(self, s, sp) -> None:
        i = self.i
        s = np.asarray(s, dtype=np.float64)
        sp = np.asarray(sp, dtype=np.float64)
        pt = self.S[:, :i].T @ s
        pp = self.Sp[:, :i].T @ sp
        self.Gt[:i, i] = pt; self.Gt[i, :i] = pt; self.Gt[i, i] = s @ s
        self.Gp[:i, i] = pp; self.Gp[i, :i] = pp; self.Gp[i, i] = sp @ sp
        self.S[:, i] = s
        self.Sp[:, i] = sp
        self.i = i + 1

    def omega_bar(self) -> float:
        i = self.i
        lam = scipy.linalg.eigh(self.Gp[:i, :i], self.Gt[:i, :i],
                                eigvals_only=True)
        return float(max(1.0 - (1.0 - self.eps_star) * lam[0],
                         (1.0 + self.eps_star) * lam[-1] - 1.0))


def _qr_metadata(config: RunConfig, variant: GsVariant, wall: float) -> dict:
    return {"seed": config.seed, "k": config.k, "n": config.n, "m": config.m,
            "policy": config.policy, "variant": variant.value,
            "sketch": config.sketch_kind.value, "matrix": config.matrix,
            "wall_time": f"{wall:.3f}"}


def _bench_columns(config: RunConfig) -> np.ndarray:
    if config.matrix == "synthetic":
        return synthetic_matrix(config.n, config.m)
    A = load_matrix_source(config.matrix, config.seed)
    if config.m > A.n:
        raise ValueError("more columns requested than the matrix has")
    W = np.asarray(A.to_scipy()[:, :config.m].todense())
    return W


def run_qr_bench(config: RunConfig, with_omega: bool = True) -> dict:
    """Factorize the same W under every requested variant.

    Returns {variant name: ExperimentReport} with per-iteration cond(Q_i),
    cond(W_i), relative factorization error, loss of orthogonality, and for
    the randomized variant also cond(S_i), omega and omega_bar traces.
    """
    policy = config.policy_obj()
    W = _bench_columns(config)
    n, m = W.shape
    # cond(W_i) trace is variant independent; compute once.
    wtrace = _GramTrace(n, m)
    cond_w = np.empty(m)
    w_frob2 = np.empty(m)
    for i in range(m):
        wtrace.push(W[:, i])
        cond_w[i] = wtrace.cond()
        w_frob2[i] = np.sum(np.diag(wtrace.G[:i + 1, :i + 1]))
    reports = {}
    for variant in config.variants:
        t0 = time.perf_counter()
        report = _qr_single(W, variant, config, policy, cond_w, w_frob2,
                            with_omega)
        report.metadata.update(_qr_metadata(config, variant,
                                            time.perf_counter() - t0))
        reports[variant.value] = report
    return reports


def _qr_single(W, variant, config, policy, cond_w, w_frob2, with_omega):
    n, m = W.shape
    report = ExperimentReport()
    theta = SketchOperator(config.sketch_kind, config.k, n, config.seed)
    phi = None
    is_rgs = variant is GsVariant.RGS
    if is_rgs:
        cert = CertificationParams(config.eps_star, config.delta_star,
                                   config.phi_seed,
                                   config.k_phi if config.k_phi else config.k)
        phi = make_certification_sketch(cert, n, kind=config.sketch_kind)
        # benchmark protocol: run straight through numerically singular
        # columns (breakdown guard off), like the experiments being traced
        state = RgsState(theta, policy, config.ls_solver, phi=phi,
                         breakdown_factor=0.0)
        obar = _OmegaBarTrace(theta.k, phi.k, config.eps_star, m)
    else:
        state = ClassicalGsState(n, variant, policy, capacity=m,
                                 breakdown_factor=0.0)
    qtrace = _GramTrace(n, m)
    otrace = _OmegaTrace(theta, m) if (is_rgs and with_omega) else None
    err2 = 0.0
    for i in range(m):
        state.push(W[:, i])
        q = state.Q[:, i].astype(np.float64)
        qtrace.push(q)
        # qtrace.cols already holds Q in binary64; reuse it for the residual.
        resid = W[:, i] - qtrace.cols[:, :i + 1] @ state.R[:i + 1, i]
        err2 += float(resid @ resid)
        row = {"cond_Q": qtrace.cond(),
               "cond_W": cond_w[i],
               "loss_of_orthogonality": qtrace.orthogonality_loss(),
               "factorization_error": np.sqrt(err2 / w_frob2[i])}
        if is_rgs:
            obar.push(state.S[:, i], state._S_phi[:, i])
            row["omega_bar"] = obar.omega_bar()
            lam = scipy.linalg.eigvalsh(obar.Gt[:i + 1, :i + 1])
            lo = max(lam[0], 0.0)
            row["cond_S"] = np.inf if lo == 0.0 else float(np.sqrt(lam[-1] / lo))
            if otrace is not None:
                otrace.push(q)
                row["omega"] = otrace.omega()
        report.add_row(i + 1, **row)
    return report


def run_gmres_bench(config: RunConfig, m: int | None = None) -> dict:
    """GMRES on the configured sparse system under every requested variant.

    The right-hand side is b = A y / ||A y|| with y the all-ones vector.
    Returns {variant name: (ExperimentReport, GmresResult)} with the
    estimated residual per iteration and a final cond(Q) trace.
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
        theta = phi = None
        if variant is GsVariant.RGS:
            theta = SketchOperator(config.sketch_kind, config.k, A.n, config.seed)
        result = gmres(A, b, m, variant=variant, theta=theta, policy=policy,
                       solver=config.ls_solver, preconditioner=precond,
                       tol=config.tol)
        report = ExperimentReport()
        qtrace = _GramTrace(A.n, result.iterations + 1)
        Q = (result.factors.Q if result.factors is not None else None)
        for i, est in enumerate(result.residual_history):
            row = {"residual_norm": float(est)}
            if Q is not None:
                qtrace.push(Q[:, i].astype(np.float64))
                row["cond_Q"] = qtrace.cond()
            report.add_row(i + 1, **row)
        report.metadata.update(_qr_metadata(config, variant,
                                            time.perf_counter() - t0))
        report.metadata.update({"m": m, "precond": config.precond,
                                "final_residual": f"{result.final_residual:.17g}",
                                "tol": config.tol})
        out[variant.value] = (report, result)
    return out


def run_certify(config: RunConfig) -> ExperimentReport:
    """Randomized factorization with full certification traces.

    Runs the randomized variant only and records per-iteration omega (exact,
    from a binary64 oracle basis), omega_bar, the rounding margin
    u_crs * cond(S_phi), and cond(S_i).
    """
    policy = config.policy_obj()
    W = _bench_columns(config)
    n, m = W.shape
    theta = SketchOperator(config.sketch_kind, config.k, n, config.seed)
    cert = CertificationParams(config.eps_star, config.delta_star,
                               config.phi_seed,
                               config.k_phi if config.k_phi else config.k)
    phi = make_certification_sketch(cert, n, kind=config.sketch_kind)
    state = RgsState(theta, policy, config.ls_solver, phi=phi,
                     breakdown_factor=0.0)
    obar = _OmegaBarTrace(theta.k, phi.k, config.eps_star, m)
    otrace = _OmegaTrace(theta, m)
    report = ExperimentReport()
    t0 = time.perf_counter()
    for i in range(m):
        state.push(W[:, i])
        obar.push(state.S[:, i], state._S_phi[:, i])
        otrace.push(state.Q[:, i].astype(np.float64))
        lam = scipy.linalg.eigvalsh(obar.Gt[:i + 1, :i + 1])
        lo = max(lam[0], 0.0)
        report.add_row(i + 1,
                       omega=otrace.omega(),
                       omega_bar=obar.omega_bar(),
                       cond_S=np.inf if lo == 0.0 else float(np.sqrt(lam[-1] / lo)))
    report.metadata.update(_qr_metadata(config, GsVariant.RGS,
                                        time.perf_counter() - t0))
    report.metadata.update({"eps_star": config.eps_star,
                            "delta_star": config.delta_star,
                            "k_phi": phi.k, "phi_seed": config.phi_seed})
    return report
