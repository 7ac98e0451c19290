import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from sketchgs import (GsVariant, MIXED32_64, SketchKind, SparseMatrix,
                      UNIFIED64, arnoldi, best_attainable_residual,
                      generate_laplacian_2d, generate_random_sparse, gmres,
                      ilu0, make_sketch)


def _dense(A):
    return A.to_scipy().toarray()


def test_from_coo_duplicates_summed():
    A = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
    D = _dense(A)
    assert D[0, 1] == 5.0 and D[1, 0] == 4.0 and D[0, 0] == 0.0


def test_from_coo_symmetric_expansion():
    # lower triangle of [[2, 1], [1, 3]]
    A = SparseMatrix.from_coo(2, [0, 1, 1], [0, 0, 1], [2.0, 1.0, 3.0],
                              symmetric=True)
    assert A.symmetric_expansion_applied
    assert np.array_equal(_dense(A), np.array([[2.0, 1.0], [1.0, 3.0]]))


def test_from_coo_bounds():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, [0], [2], [1.0])


def test_matvec_matches_scipy(rng):
    S = scipy.sparse.random(50, 50, density=0.1, random_state=1, format="csr")
    A = SparseMatrix.from_scipy(S)
    x = rng.standard_normal(50)
    assert np.allclose(A.matvec(x), S @ x, atol=1e-14)


def test_ilu0_exact_when_pattern_full():
    # when the pattern admits the exact LU, ILU(0) equals it (dense tridiag)
    A = generate_laplacian_2d(4)
    pre = ilu0(A)
    D = _dense(A)
    # oracle: ILU(0) via dense elimination restricted to the pattern
    n = A.n
    pat = D != 0.0
    F = D.copy()
    for i in range(1, n):
        for k in range(i):
            if pat[i, k] and F[k, k] != 0.0:
                lik = F[i, k] / F[k, k]
                F[i, k] = lik
                for j in range(k + 1, n):
                    if pat[i, j]:
                        F[i, j] -= lik * F[k, j]
    L = np.tril(F, -1) + np.eye(n)
    U = np.triu(F)
    assert np.allclose(pre.L.toarray(), L, atol=1e-12)
    assert np.allclose(pre.U.toarray(), U, atol=1e-12)


def test_ilu0_solve_is_triangular_solve(rng):
    A = generate_random_sparse(60, 4, seed=3)
    pre = ilu0(A)
    v = rng.standard_normal(60)
    y = pre.solve(v)
    # oracle: dense solve with the same factors
    ref = np.linalg.solve(pre.U.toarray(), np.linalg.solve(pre.L.toarray(), v))
    assert np.allclose(y, ref, atol=1e-10)


def test_ilu0_rejects_zero_diagonal():
    A = SparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ilu0(A)


def test_arnoldi_identity(rng):
    # A Q_m = Q_{m+1} H_m up to the working precision
    A = generate_random_sparse(200, 5, seed=1)
    b = rng.standard_normal(200)
    theta = make_sketch(SketchKind.PSRHT, 64, 200, seed=0)
    for variant in (GsVariant.RGS, GsVariant.CGS2):
        dec = arnoldi(A, b, 15, variant=variant, theta=theta, policy=UNIFIED64)
        AQ = np.column_stack([A.matvec(dec.Q[:, j]) for j in range(15)])
        err = np.linalg.norm(AQ - dec.Q @ dec.H) / np.linalg.norm(AQ)
        assert err < 1e-12, variant
        assert dec.H.shape == (16, 15)
        assert dec.beta > 0


def test_arnoldi_lucky_breakdown():
    # b an exact eigenvector: the Krylov subspace is 1-dimensional
    A = SparseMatrix.from_scipy(scipy.sparse.eye(30, format="csr") * 2.0)
    b = np.zeros(30)
    b[0] = 1.0
    dec = arnoldi(A, b, 5, variant=GsVariant.MGS, policy=UNIFIED64)
    assert dec.breakdown
    assert dec.Q.shape[1] < 6


@pytest.mark.parametrize("variant", [GsVariant.RGS, GsVariant.MGS,
                                     GsVariant.CGS2])
def test_gmres_solves_laplacian(variant):
    A = generate_laplacian_2d(16)
    n = A.n
    x_star = np.sin(np.arange(n) * 0.1)
    b = A.matvec(x_star)
    theta = make_sketch(SketchKind.PSRHT, 200, n, seed=0)
    res = gmres(A, b, m=150, variant=variant, theta=theta, policy=UNIFIED64,
                tol=1e-12)
    assert res.final_residual < 1e-10
    assert np.linalg.norm(res.x - x_star) / np.linalg.norm(x_star) < 1e-8
    assert res.converged


def test_gmres_matches_direct_solve(rng):
    A = generate_random_sparse(150, 6, seed=5)
    b = rng.standard_normal(150)
    theta = make_sketch(SketchKind.PSRHT, 128, 150, seed=1)
    res = gmres(A, b, m=100, theta=theta, policy=UNIFIED64, tol=1e-12)
    x_ref = scipy.sparse.linalg.spsolve(A.to_scipy().tocsc(), b)
    assert np.linalg.norm(res.x - x_ref) / np.linalg.norm(x_ref) < 1e-9
    assert res.factors is not None  # randomized run returns its factors


def test_gmres_residual_history_decreases(rng):
    A = generate_laplacian_2d(10)
    b = rng.standard_normal(A.n)
    theta = make_sketch(SketchKind.PSRHT, 80, A.n, seed=0)
    res = gmres(A, b, m=60, theta=theta, policy=UNIFIED64)
    h = res.residual_history
    assert np.all(np.diff(h) <= 1e-15)  # monotone (estimated) residual
    # the Givens estimate agrees with the true residual at the end
    assert abs(h[-1] - res.final_residual) <= 1e-8 + 0.1 * res.final_residual


def test_gmres_preconditioned_converges_faster(rng):
    A = generate_random_sparse(300, 8, seed=2, diag_shift=0.1)
    b = rng.standard_normal(300)
    theta = make_sketch(SketchKind.PSRHT, 200, 300, seed=0)
    plain = gmres(A, b, m=40, theta=theta, policy=UNIFIED64)
    pre = gmres(A, b, m=40, theta=theta, policy=UNIFIED64,
                preconditioner=ilu0(A))
    assert pre.final_residual < plain.final_residual


@pytest.mark.parametrize("variant,policy", [(GsVariant.RGS, UNIFIED64),
                                            (GsVariant.RGS, MIXED32_64),
                                            (GsVariant.CGS2, UNIFIED64)],
                         ids=["rgs-f64", "rgs-mixed", "cgs2-f64"])
def test_gmres_breakdown_is_not_convergence(variant, policy):
    # A has three distinct eigenvalues, so the Krylov space is exhausted after
    # three columns; the breaking column is dropped, the residual stays large,
    # and the solve must not report convergence
    n = 4096
    A = SparseMatrix.from_scipy(scipy.sparse.diags(np.arange(n) % 3 + 1.0))
    b = np.random.default_rng(0).standard_normal(n)
    theta = make_sketch(SketchKind.PSRHT, 200, n, seed=0)
    tol = 1e-10
    res = gmres(A, b, m=10, variant=variant, theta=theta, policy=policy,
                tol=tol)
    assert res.breakdown
    assert res.final_residual > tol
    assert res.converged == (res.final_residual <= tol)


def test_gmres_zero_rhs():
    A = generate_laplacian_2d(5)
    res = gmres(A, np.zeros(A.n), m=10, variant=GsVariant.MGS)
    assert res.converged and np.all(res.x == 0.0)


def test_gmres_mixed_precision_reaches_coarse_accuracy(rng):
    A = generate_laplacian_2d(12)
    b = rng.standard_normal(A.n)
    theta = make_sketch(SketchKind.PSRHT, 140, A.n, seed=0)
    res = gmres(A, b, m=120, theta=theta, policy=MIXED32_64)
    assert res.final_residual < 1e-4  # binary32-scale plateau


def test_best_attainable_residual(rng):
    A = generate_laplacian_2d(8)
    b = rng.standard_normal(A.n)
    theta = make_sketch(SketchKind.PSRHT, 48, A.n, seed=0)
    res = gmres(A, b, m=30, theta=theta, policy=UNIFIED64)
    tau = best_attainable_residual(A, res.factors.Q[:, :res.iterations], b)
    # GMRES extracts (nearly) all the accuracy its basis supports
    assert res.final_residual <= 10.0 * max(tau, 1e-15)
    assert best_attainable_residual(A, np.zeros((A.n, 0)), b) == 1.0
