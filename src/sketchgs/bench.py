"""Experiment runners: QR stability benchmarks, GMRES benchmarks, and
embedding certification sweeps, all emitting `ExperimentReport`s.

Each runner factorizes first and then reads every per-iteration trace
(condition numbers, loss of orthogonality, omega, omega_bar) from
`certification.traces`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .certification import traces
from .gram_schmidt import GsVariant, classical_factorize, rgs_factorize
from .io import (ExperimentReport, SparseMatrix, generate_laplacian_2d,
                 generate_random_sparse, read_matrix_market, synthetic_matrix)
from .krylov import gmres, ilu0
from .precision import policy_from_name
from .sketch import SketchKind, SketchOperator

__all__ = ["RunConfig", "run_qr_bench", "run_gmres_bench", "run_certify",
           "load_matrix_source"]


@dataclass
class RunConfig:
    """Experiment settings; `COMMAND_FIELDS` says what each command reads.
    An unset k_phi, the rows of the certification sketch Phi, is k."""

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

    def __post_init__(self):
        if self.k_phi is None:
            self.k_phi = self.k


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
    sketch by name, the n and the variant actually run."""
    meta = {f: getattr(config, f) for f in COMMAND_FIELDS[command]
            if f not in ("sketch_kind", "variants")}
    return {**meta, "n": n, "variant": variant.value,
            "sketch": config.sketch_kind.value, "wall_time": f"{wall:.3f}"}


def _report(columns: dict, metadata: dict) -> ExperimentReport:
    """A report whose row i + 1 holds entry i of each named column."""
    report = ExperimentReport(metadata)
    for i, row in enumerate(zip(*columns.values())):
        report.add_row(i + 1, **dict(zip(columns, row)))
    return report


def load_matrix_source(spec: str, seed: int = 0) -> SparseMatrix:
    """Resolve `path.mtx`, `laplacian:SIZE`, or `randsparse:N[:NNZ]`."""
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    if spec.startswith("laplacian:"):
        return generate_laplacian_2d(int(spec.split(":", 1)[1]))
    if spec.startswith("randsparse:"):
        parts = spec.split(":")[1:]
        if len(parts) > 2:
            raise ValueError(f"matrix source {spec!r} has more fields than "
                             "randsparse:N[:NNZ]")
        n = int(parts[0])
        nnz = int(parts[1]) if len(parts) > 1 else 8
        return generate_random_sparse(n, nnz, seed)
    raise ValueError(f"unrecognized matrix source {spec!r}")


def _bench_columns(config: RunConfig) -> np.ndarray:
    if config.matrix == "synthetic":
        return synthetic_matrix(config.n, config.m)
    A = load_matrix_source(config.matrix, config.seed)
    if config.m > A.n:
        raise ValueError("more columns requested than the matrix has")
    return A.to_scipy()[:, :config.m].toarray(order="F")  # as W is built


def run_qr_bench(config: RunConfig) -> dict:
    """Factorize the same W under every requested variant.

    Returns {variant name: ExperimentReport} with per-iteration cond(Q_i),
    cond(W_i), relative factorization error, loss of orthogonality, and for
    the randomized variant also cond(S_i), omega and omega_bar traces.
    """
    policy = policy_from_name(config.policy)
    W = _bench_columns(config)
    w_frob2 = np.cumsum(np.einsum("ij,ij->j", W, W))
    runs = []
    for variant in config.variants:
        t0 = time.perf_counter()
        if variant is GsVariant.RGS:
            f, cols = _rgs_traces(W, config)
        else:
            # guard off, as for the randomized run
            f = classical_factorize(W, variant, policy, breakdown_factor=0.0)
            cols = traces(f.Q)
        E = f.Q.astype(np.float64) @ f.R
        E -= W
        cols["factorization_error"] = np.sqrt(
            np.cumsum(np.einsum("ij,ij->j", E, E)) / w_frob2)
        runs.append((variant, cols, time.perf_counter() - t0))
    # cond(W_i) is variant independent, read once the factorizations have
    # rejected a non-finite W
    cond_w = traces(W)["cond_Q"]
    return {variant.value: _report({"cond_W": cond_w, **cols},
                                   _metadata(config, "qr-bench", W.shape[0],
                                             variant, wall))
            for variant, cols, wall in runs}


def _rgs_traces(W, config: RunConfig, cond_q=True):
    """Randomized factorization of W and its traces, certification included."""
    n = W.shape[0]
    theta = SketchOperator(config.sketch_kind, config.k, n, config.seed)
    phi = SketchOperator(config.sketch_kind, config.k_phi, n, config.phi_seed)
    # benchmark protocol: run straight through numerically singular
    # columns (breakdown guard off), like the experiments being traced
    f, _ = rgs_factorize(W, theta, policy_from_name(config.policy),
                         with_certificate=False, breakdown_factor=0.0)
    theta_q = theta.apply_block(f.Q)
    del theta  # and the sign blocks it kept, before the traces copy Q and S
    return f, traces(f.Q, f.S, theta_q, phi.apply_block(f.Q), config.eps_star,
                     cond_q)


def run_gmres_bench(config: RunConfig) -> dict:
    """GMRES on the configured sparse system under every requested variant.

    The right-hand side is b = A·1, handed to `gmres` as it is.
    Returns {variant name: (ExperimentReport, GmresResult)} with the
    estimated residual and cond(Q_i) per iteration, under every variant.
    Without a tolerance the report's metadata has no `converged` entry.
    """
    A = load_matrix_source(config.matrix, config.seed)
    b = A.matvec(np.ones(A.n))
    policy = policy_from_name(config.policy)
    precond = ilu0(A) if config.precond else None
    out = {}
    for variant in config.variants:
        t0 = time.perf_counter()
        theta = None
        if variant is GsVariant.RGS:
            theta = SketchOperator(config.sketch_kind, config.k, A.n, config.seed)
        result = gmres(A, b, config.m, variant=variant, theta=theta,
                       policy=policy, preconditioner=precond, tol=config.tol)
        history = result.residual_history
        cond_q = traces(result.factors.Q[:, :len(history)])["cond_Q"]
        meta = _metadata(config, "gmres-bench", A.n, variant,
                         time.perf_counter() - t0)
        meta.update(final_residual=f"{result.final_residual:.17g}",
                    iterations=result.iterations, breakdown=result.breakdown)
        if result.converged is not None:  # absent without a tolerance
            meta["converged"] = result.converged
        out[variant.value] = (_report({"residual_norm": history,
                                       "cond_Q": cond_q}, meta), result)
    return out


def run_certify(config: RunConfig) -> ExperimentReport:
    """Randomized factorization with full certification traces.

    Runs the randomized variant only and records per-iteration omega (exact,
    from a binary64 oracle basis), omega_bar and cond(S_i), and no other.
    """
    W = _bench_columns(config)
    t0 = time.perf_counter()
    _, cols = _rgs_traces(W, config, cond_q=False)  # exactly those three
    return _report(cols, _metadata(config, "certify", W.shape[0],
                                   GsVariant.RGS, time.perf_counter() - t0))
