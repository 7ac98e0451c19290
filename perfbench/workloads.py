"""The benchmark's workloads, each driving sketchgs through its public API.

A workload makes its inputs from the seed (`setup`), runs one operation
(`run`), measures the quality of one output (`evaluate`) and reduces an
output to a digest for the bit-identity check (`digest`). An output passes
when every value named in `limits` is <= its limit; the limits are fixed and
recorded with the values measured at the seed in `baseline.json`.

Quality values are computed over row blocks, so that checking an output
allocates little next to the operation itself.
"""

from __future__ import annotations

import hashlib

import numpy as np

from sketchgs import bench, gram_schmidt, io, krylov, sketch
from sketchgs.gram_schmidt import GsVariant
from sketchgs.precision import MIXED32_64, UNIFIED64
from sketchgs.sketch import SketchKind

_ROWS = 8192  # row block of the output checks


def derive_seed(seed: int, stream: int) -> int:
    """Independent library seed number `stream` for one benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def _nonfinite(*arrays) -> int:
    return sum(int(a.size - np.count_nonzero(np.isfinite(a))) for a in arrays)


def _basis_quality(W, Q, R):
    """cond(Q), ||W - QR||_F / ||W||_F and the number of non-finite entries
    of Q. cond(Q) is that of the triangular factor of a binary64 QR of Q,
    built one row block at a time (TSQR)."""
    m = Q.shape[1]
    T = np.zeros((0, m))
    err2 = w2 = 0.0
    bad = 0
    for r0 in range(0, Q.shape[0], _ROWS):
        Qb = Q[r0:r0 + _ROWS].astype(np.float64)
        Wb = W[r0:r0 + _ROWS]
        bad += _nonfinite(Qb)
        if bad:
            return float("inf"), float("inf"), bad
        T = np.linalg.qr(np.vstack([T, Qb]), mode="r")
        E = Wb - Qb @ R
        err2 += float(np.sum(E * E))
        w2 += float(np.sum(Wb * Wb))
    sv = np.linalg.svd(T, compute_uv=False)
    return float(sv[0] / sv[-1]), float(np.sqrt(err2 / w2)), 0


class QrPaper:
    """rgs_factorize of the paper-scale synthetic matrix, then certificates."""

    name = "qr-paper"
    limits = {"gram_schmidt.cond_Q": 10.0, "gram_schmidt.fact_err": 1e-6,
              "gram_schmidt.delta_tilde_m": 1e-6, "nonfinite": 0}

    def __init__(self, n=100_000, m=300, k=5000):
        self.n, self.m, self.k = n, m, k

    def setup(self, seed):
        W = io.synthetic_matrix(self.n, self.m)
        theta = sketch.make_sketch(SketchKind.PSRHT, self.k, self.n,
                                   derive_seed(seed, 1))
        return {"W": W, "theta": theta}

    def run(self, inputs):
        # Guard off: the default breakdown guard trips at column 151 of this
        # matrix, whose trailing columns are numerically singular.
        return gram_schmidt.rgs_factorize(inputs["W"], inputs["theta"],
                                          MIXED32_64, breakdown_factor=0.0)

    def evaluate(self, inputs, out):
        factors, cert = out
        cond, err, bad = _basis_quality(inputs["W"], factors.Q, factors.R)
        return {"gram_schmidt.cond_Q": cond, "gram_schmidt.fact_err": err,
                "gram_schmidt.delta_m": cert.delta_m,
                "gram_schmidt.delta_tilde_m": cert.delta_tilde_m,
                "gram_schmidt.gate_pass": int(cert.passes_gate()),
                "cond_S": cert.cond_S, "nonfinite": bad}

    def digest(self, out):
        f, cert = out
        return _digest(f.Q, f.R, f.S, f.P,
                       np.array([cert.delta_m, cert.delta_tilde_m, cert.cond_S]))


class GmresIlu:
    """ILU(0) of a 2-D Laplacian, then sketched GMRES in binary64."""

    name = "gmres-ilu"
    limits = {"krylov.true_residual": 1e-9, "nonfinite": 0}

    def __init__(self, grid=200, m=400, k=500, tol=1e-10):
        self.grid, self.m, self.k, self.tol = grid, m, k, tol

    def setup(self, seed):
        A = io.generate_laplacian_2d(self.grid)
        y = np.random.default_rng(derive_seed(seed, 2)).standard_normal(A.n)
        theta = sketch.make_sketch(SketchKind.PSRHT, self.k, A.n,
                                   derive_seed(seed, 1))
        return {"A": A, "b": A.matvec(y), "theta": theta,
                "A_check": A.to_scipy()}

    def run(self, inputs):
        A = inputs["A"]
        precond = krylov.ilu0(A)
        return krylov.gmres(A, inputs["b"], m=self.m, theta=inputs["theta"],
                            policy=UNIFIED64, preconditioner=precond,
                            tol=self.tol)

    def evaluate(self, inputs, res):
        b = inputs["b"]
        true = np.linalg.norm(b - inputs["A_check"] @ res.x) / np.linalg.norm(b)
        return {"krylov.true_residual": float(true),
                "krylov.iterations": res.iterations,
                "krylov.converged": int(res.converged),
                "krylov.breakdown": int(res.breakdown),
                "residual_estimate": float(res.residual_history[-1]),
                "nonfinite": _nonfinite(res.x)}

    def digest(self, res):
        return _digest(res.x, res.residual_history)


class CertifyRademacher:
    """bench.run_certify with Rademacher Theta and Phi, then write_report."""

    name = "certify-rademacher"
    limits = {"bench.bound_violations": 0, "nonfinite": 0, "missing_rows": 0,
              "report_mismatch": 0}
    _COLUMNS = ("omega", "omega_bar", "cond_S")

    def __init__(self, report_path, n=16_000, m=150, k=1000, eps_star=0.25,
                 delta_star=1e-3):
        self.report_path = report_path
        self.n, self.m, self.k = n, m, k
        self.eps_star, self.delta_star = eps_star, delta_star

    def setup(self, seed):
        config = bench.RunConfig(
            n=self.n, m=self.m, k=self.k, sketch_kind=SketchKind.RADEMACHER,
            seed=derive_seed(seed, 1), policy="mixed",
            variants=(GsVariant.RGS,), eps_star=self.eps_star,
            delta_star=self.delta_star,
            k_phi=sketch.vector_certificate_dim(self.eps_star, self.delta_star),
            phi_seed=derive_seed(seed, 3))
        return {"config": config}

    def run(self, inputs):
        report = bench.run_certify(inputs["config"])
        io.write_report(report, self.report_path)
        return report

    def evaluate(self, inputs, report):
        omega, omega_bar, cond_s = (report.column(c) for c in self._COLUMNS)
        back = io.read_report(self.report_path)
        mismatch = sum(not np.array_equal(report.column(c), back.column(c))
                       for c in self._COLUMNS)
        return {"bench.bound_violations": int(np.count_nonzero(~(omega <= omega_bar))),
                "bench.omega_final": float(omega[-1]),
                "bench.omega_bar_final": float(omega_bar[-1]),
                "missing_rows": self.m - len(report.rows),
                "nonfinite": _nonfinite(omega, omega_bar, cond_s),
                "report_mismatch": mismatch}

    def digest(self, report):
        return _digest(*(report.column(c) for c in self._COLUMNS))


class QrBaselines:
    """classical_factorize under CGS, MGS and CGS2 in binary32."""

    name = "qr-baselines"
    _VARIANTS = (GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2)
    limits = {**{f"gram_schmidt.fact_err.{v.value}": 1e-4 for v in _VARIANTS},
              "nonfinite": 0}

    def __init__(self, n=30_000, m=200):
        self.n, self.m = n, m

    def setup(self, seed):
        # deterministic input: no sketch runs, so the seed is not used
        return {"W": io.synthetic_matrix(self.n, self.m)}

    def run(self, inputs):
        return {v.value: gram_schmidt.classical_factorize(
                    inputs["W"], v, MIXED32_64, breakdown_factor=0.0)
                for v in self._VARIANTS}

    def evaluate(self, inputs, out):
        values = {"nonfinite": 0}
        for name, f in out.items():
            cond, err, bad = _basis_quality(inputs["W"], f.Q, f.R)
            values[f"gram_schmidt.cond_Q.{name}"] = cond
            values[f"gram_schmidt.fact_err.{name}"] = err
            values["nonfinite"] += bad
        return values

    def digest(self, out):
        return _digest(*(a for f in out.values() for a in (f.Q, f.R)))


def make_workload(name, out_dir, **sizes):
    """The named workload at the benchmark's sizes, or at `sizes`."""
    if name == CertifyRademacher.name:
        return CertifyRademacher(out_dir / f"{name}.csv", **sizes)
    for cls in (QrPaper, GmresIlu, QrBaselines):
        if cls.name == name:
            return cls(**sizes)
    raise ValueError(f"unknown workload {name!r}")

