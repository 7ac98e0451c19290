"""Experiment runners: QR stability benchmarks, GMRES benchmarks, and
embedding certification sweeps, all emitting `ExperimentReport`s.

Per-iteration condition numbers are obtained from incrementally updated Gram
matrices followed by small symmetric eigensolves, never from repeated
large-matrix SVDs, so the default benchmark scales run in minutes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .certification import CertificationParams, make_certification_sketch
from .gram_schmidt import (ClassicalGsState, GsVariant, HOUSEHOLDER_QR,
                           LsqSolver, RgsState)
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

    def gram(self) -> np.ndarray:
        return self.G[:self.i, :self.i]

    def cond(self) -> float:
        lam = scipy.linalg.eigvalsh(self.gram())
        lo = max(lam[0], 0.0)
        return np.inf if lo == 0.0 else float(np.sqrt(lam[-1] / lo))

    def orthogonality_loss(self) -> float:
        return float(np.linalg.norm(np.eye(self.i) - self.gram()))


class _OmegaTrace:
    """Exact embedding error of theta on the span of a growing column set.

    Maintains a binary64 orthonormal basis U of the span (CGS2 updates) and
    the Gram trace of theta @ U; omega_i comes from its extreme eigenvalues.
    """

    def __init__(self, theta: SketchOperator, capacity: int):
        self.theta = theta
        self.U = np.zeros((theta.n, capacity))
        self.SU = _GramTrace(theta.k, capacity)

    def push(self, v) -> None:
        i = self.SU.i
        u = np.asarray(v, dtype=np.float64).copy()
        for _ in range(2):
            u -= self.U[:, :i] @ (self.U[:, :i].T @ u)
        nu = np.linalg.norm(u)
        if nu < 1e-12 * np.linalg.norm(v):
            # numerically dependent column: the span (and omega) are unchanged
            return
        u /= nu
        self.SU.push(self.theta.apply(u))
        self.U[:, i] = u

    def omega(self) -> float:
        lam = scipy.linalg.eigvalsh(self.SU.gram())
        return float(max(1.0 - lam[0], lam[-1] - 1.0))


class _OmegaBarTrace:
    """Certified bound trace from the two sketches of the same columns.

    With G_theta = S^T S and G_phi = S_phi^T S_phi, the singular values of
    V_phi X (X the orthonormalizer of S) are the generalized eigenvalues of
    the pencil (G_phi, G_theta); `certification.omega_bar` computes the same
    bound from a QR of S, and the tests check that the two agree.
    """

    def __init__(self, k: int, k_phi: int, eps_star: float, capacity: int):
        self.S = _GramTrace(k, capacity)
        self.S_phi = _GramTrace(k_phi, capacity)
        self.eps_star = eps_star

    def push(self, s, sp) -> None:
        self.S.push(s)
        self.S_phi.push(sp)

    def omega_bar(self) -> float:
        lam = scipy.linalg.eigh(self.S_phi.gram(), self.S.gram(),
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
    return np.asarray(A.to_scipy()[:, :config.m].todense())


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
        w_frob2[i] = np.sum(np.diag(wtrace.gram()))
    reports = {}
    for variant in config.variants:
        t0 = time.perf_counter()
        report = _qr_single(W, variant, config, policy, cond_w, w_frob2,
                            with_omega)
        report.metadata.update(_qr_metadata(config, variant,
                                            time.perf_counter() - t0))
        reports[variant.value] = report
    return reports


def _rgs_steps(W, config: RunConfig, policy: PrecisionPolicy,
               with_omega: bool = True):
    """Randomized factorization of the columns of W, one column per step.

    Yields the state after each push with its certification row: omega_bar
    and cond(S_i), plus omega (exact, from a binary64 oracle basis) when
    `with_omega` is set.
    """
    n, m = W.shape
    theta = SketchOperator(config.sketch_kind, config.k, n, config.seed)
    cert = CertificationParams(config.eps_star, config.delta_star,
                               config.phi_seed, config.phi_dim())
    phi = make_certification_sketch(cert, n, kind=config.sketch_kind)
    # benchmark protocol: run straight through numerically singular
    # columns (breakdown guard off), like the experiments being traced
    state = RgsState(theta, policy, config.ls_solver, phi=phi, capacity=m,
                     breakdown_factor=0.0)
    obar = _OmegaBarTrace(theta.k, phi.k, config.eps_star, m)
    otrace = _OmegaTrace(theta, m) if with_omega else None
    for i in range(m):
        state.push(W[:, i])
        obar.push(state.S[:, i], state._S_phi[:, i])
        row = {"omega_bar": obar.omega_bar(), "cond_S": obar.S.cond()}
        if otrace is not None:
            otrace.push(state.Q[:, i].astype(np.float64))
            row["omega"] = otrace.omega()
        yield state, row


def _classical_steps(W, variant: GsVariant, policy: PrecisionPolicy):
    """Classical factorization of the columns of W, one column per step."""
    n, m = W.shape
    state = ClassicalGsState(n, variant, policy, capacity=m,
                             breakdown_factor=0.0)
    for i in range(m):
        state.push(W[:, i])
        yield state, {}


def _qr_single(W, variant, config, policy, cond_w, w_frob2, with_omega):
    n, m = W.shape
    report = ExperimentReport()
    if variant is GsVariant.RGS:
        steps = _rgs_steps(W, config, policy, with_omega)
    else:
        steps = _classical_steps(W, variant, policy)
    qtrace = _GramTrace(n, m)
    err2 = 0.0
    for i, (state, row) in enumerate(steps):
        qtrace.push(state.Q[:, i].astype(np.float64))
        # qtrace.cols already holds Q in binary64; reuse it for the residual.
        resid = W[:, i] - qtrace.cols[:, :i + 1] @ state.R[:i + 1, i]
        err2 += float(resid @ resid)
        row.update(cond_Q=qtrace.cond(), cond_W=cond_w[i],
                   loss_of_orthogonality=qtrace.orthogonality_loss(),
                   factorization_error=np.sqrt(err2 / w_frob2[i]))
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
        theta = None
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
    from a binary64 oracle basis), omega_bar and cond(S_i).
    """
    policy = config.policy_obj()
    W = _bench_columns(config)
    report = ExperimentReport()
    t0 = time.perf_counter()
    for state, row in _rgs_steps(W, config, policy):
        report.add_row(state.m, **row)
    report.metadata.update(_qr_metadata(config, GsVariant.RGS,
                                        time.perf_counter() - t0))
    report.metadata.update({"eps_star": config.eps_star,
                            "delta_star": config.delta_star,
                            "k_phi": config.phi_dim(),
                            "phi_seed": config.phi_seed})
    return report
