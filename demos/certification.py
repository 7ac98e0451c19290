"""A-posteriori certification of embedding quality.

Computes the exact embedding error omega of a sketch on the range of a
computed basis (feasible here because the demo is small: it needs an exact
orthonormal basis) and the certified upper bound omega_bar, which needs only
the two sketches of the basis: S = Theta Q from the factorization and
Phi Q from a second, independent sketch. With Delta_m, omega_bar gives an
enclosure of the singular values of Q, printed next to the exact ones.

Usage: python3 demos/certification.py
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np

from sketchgs import (SketchKind, SketchOperator, UNIFIED64, certificates,
                      epsilon_of, make_sketch, rgs_factorize,
                      vector_certificate_dim)

N, M = 4096, 20
EPS_STAR, DELTA_STAR = 0.25, 1e-3


def main():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((N, M))

    for k in (96, 256, 1024):
        theta = make_sketch(SketchKind.PSRHT, k, N, seed=0)
        # Phi only has to embed single vectors, so its rows depend on the
        # certification levels, not on M
        phi = SketchOperator(SketchKind.RADEMACHER,
                             vector_certificate_dim(EPS_STAR, DELTA_STAR), N,
                             seed=0x0F1A)
        f, _ = rgs_factorize(W, theta, UNIFIED64)
        cert = certificates(f, W, phi, EPS_STAR)
        omega = epsilon_of(theta, f.Q)  # exact, needs the full basis
        sv = np.linalg.svd(f.Q, compute_uv=False)  # likewise
        lo, hi = cert.sigma_q
        print(f"k={k:4d}: exact omega={omega:.4f}  certified "
              f"omega_bar={cert.omega_bar_q:.4f}  "
              f"(margin ok: {cert.margin_ok_q})\n"
              f"        sigma(Q) in [{sv[-1]:.4f}, {sv[0]:.4f}], "
              f"certified in [{lo:.4f}, {hi:.4f}]")

    print("\nomega_bar always sits above the exact omega. Increasing k "
          "improves the embedding and both quantities shrink together; the "
          "certified enclosure of sigma(Q) has no upper end (inf) while "
          "omega_bar >= 1.")


if __name__ == "__main__":
    main()
