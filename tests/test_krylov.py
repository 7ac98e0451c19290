import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

from sketchgs import (GsVariant, MIXED32_64, NonFiniteError, SketchKind,
                      SketchOperator, SparseMatrix, UNIFIED64, arnoldi,
                      best_attainable_residual, generate_laplacian_2d,
                      generate_random_sparse, gmres, ilu0)


def _dense(A):
    return A.to_scipy().toarray()


def _coo(n, rows, cols, vals):
    return SparseMatrix(scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def test_coo_duplicates_summed():
    A = _coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
    assert A.csr.nnz == 2  # the duplicate (0, 1) is one stored entry
    D = _dense(A)
    assert D[0, 1] == 5.0 and D[1, 0] == 4.0 and D[0, 0] == 0.0
    with pytest.raises(ValueError, match="must be square"):
        SparseMatrix(scipy.sparse.csr_matrix((2, 3)))


def test_matvec_matches_scipy(rng):
    S = scipy.sparse.random(50, 50, density=0.1, random_state=1, format="csr")
    A = SparseMatrix(csr=S)
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


def test_ilu0_canonicalizes_unsorted_rows():
    # the same matrix with every row's entries stored in reverse column order
    A = generate_random_sparse(50, 4, seed=1)
    c = A.csr
    rev = np.concatenate([np.arange(c.indptr[i], c.indptr[i + 1])[::-1]
                          for i in range(A.n)])
    given = scipy.sparse.csr_matrix((c.data[rev], c.indices[rev], c.indptr),
                                    shape=c.shape)
    B = SparseMatrix(csr=given)
    assert np.array_equal(given.indices, c.indices[rev])  # held on a copy
    PA, PB = ilu0(A), ilu0(B)
    for F, G in ((PA.L, PB.L), (PA.U, PB.U)):
        assert np.array_equal(F.indptr, G.indptr)
        assert np.array_equal(F.indices, G.indices)
        assert np.array_equal(F.data, G.data)


def test_ilu0_rejects_zero_diagonal():
    A = _coo(2, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ilu0(A)


@pytest.mark.parametrize("rows, cols, vals, bad_row", [
    # row 0's pivot, which no later row eliminates with
    ([0, 1], [0, 1], [1e-40, 1.0], 0),
    # the same pivot, reached through the (1, 0) entry
    ([0, 1, 1], [0, 1, 0], [1e-40, 1.0, 1.0], 0),
    # two small pivots: the lowest row is named
    ([0, 1, 2, 3], [0, 1, 2, 3], [1.0, 1e-40, 1.0, 0.0], 1),
    # a pivot that cancels in the elimination: [[1, 1], [1, 1]]
    ([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0], 1),
])
def test_ilu0_checks_every_pivot(rows, cols, vals, bad_row):
    A = _coo(max(rows) + 1, rows, cols, vals)
    with pytest.raises(ZeroDivisionError, match=rf"at row {bad_row}$"):
        ilu0(A)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("col", [1, 2], ids=["diagonal", "upper"])
def test_ilu0_rejects_non_finite_entries(value, col):
    # a NaN pivot compares False with the pivot tolerance, and SuperLU either
    # stops on it with a RuntimeError or factors the infinity without a word
    A = _coo(3, [0, 0, 1, 1, 2, 2], [0, 1, 1, col, 2, 0],
             [4.0, 1.0, 4.0, value, 4.0, 1.0])
    with pytest.raises(FloatingPointError,
                       match=r"ILU\(0\) non-finite entry at row 1$"):
        ilu0(A)


def test_ilu0_rejects_elimination_overflow():
    # finite entries whose elimination overflows binary64 in row 1
    A = _coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1e200, 1e200, 1.0])
    with pytest.raises(FloatingPointError, match="at row 1$"):
        ilu0(A)


def _ilu0_reference(A, pivot_tol=1e-30):
    """The row-by-row IKJ loop with one column -> position dict per row, as
    `ilu0` ran before its level-scheduled form; the factors of `ilu0` must
    equal these bit for bit. Returns (L, U) as CSR matrices."""
    n = A.n
    indptr = A.csr.indptr
    indices = A.csr.indices
    data = A.csr.data.copy()
    colmaps = [{int(indices[p]): p for p in range(indptr[i], indptr[i + 1])}
               for i in range(n)]
    diag_pos = [colmaps[i][i] for i in range(n)]
    for i in range(1, n):
        lo, hi = indptr[i], indptr[i + 1]
        for p in range(lo, hi):
            k = int(indices[p])
            if k >= i:
                break
            pivot = data[diag_pos[k]]
            if abs(pivot) < pivot_tol:
                raise ZeroDivisionError(f"ILU(0) pivot too small at row {k}")
            lik = data[p] / pivot
            data[p] = lik
            cmk = colmaps[k]
            for q in range(p + 1, hi):
                pos = cmk.get(int(indices[q]))
                if pos is not None:
                    data[q] -= lik * data[pos]
        if abs(data[diag_pos[i]]) < pivot_tol:
            raise ZeroDivisionError(f"ILU(0) pivot too small at row {i}")
    full = scipy.sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                                   shape=(n, n))
    L = scipy.sparse.tril(full, k=-1, format="csr")
    L = (L + scipy.sparse.eye(n, format="csr")).tocsr()
    U = scipy.sparse.triu(full, k=0, format="csr")
    return L, U


@st.composite
def _ilu_matrices(draw):
    """A seeded diagonally dominant sparse matrix, or a small Laplacian."""
    if draw(st.booleans()):
        return generate_laplacian_2d(draw(st.integers(2, 12)))
    n = draw(st.integers(1, 150))
    nnz_per_row = draw(st.integers(0, min(n - 1, 9)))
    shift = draw(st.sampled_from([1e-3, 1.0]))
    return generate_random_sparse(n, nnz_per_row, draw(st.integers(0, 2**32)),
                                  diag_shift=shift)


@given(A=_ilu_matrices(), seed=st.integers(0, 2**32))
def test_ilu0_matches_reference_loop(A, seed):
    # the level-scheduled factorization keeps the loop's operation order, so
    # its factors are the same bits; the SuperLU solve applies those factors
    pre = ilu0(A)
    L, U = _ilu0_reference(A)
    for got, ref in ((pre.L, L), (pre.U, U)):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)
    v = np.random.default_rng(seed).standard_normal(A.n)
    ref = scipy.linalg.solve_triangular(
        U.toarray(), scipy.linalg.solve_triangular(
            L.toarray(), v, lower=True, unit_diagonal=True))
    assert np.linalg.norm(pre.solve(v) - ref) <= 1e-13 * np.linalg.norm(ref)


def _arnoldi_error(A, dec):
    """||A Q_j - Q H|| / ||A Q_j|| for the j columns of H, with H cut to the
    columns of Q (a zero last row after a breakdown)."""
    j = dec.H.shape[1]
    AQ = np.column_stack([A.matvec(dec.Q[:, i]) for i in range(j)])
    return np.linalg.norm(AQ - dec.Q @ dec.H[:dec.Q.shape[1]]) / np.linalg.norm(AQ)


def test_arnoldi_identity(rng):
    # A Q_m = Q_{m+1} H_m up to the working precision
    A = generate_random_sparse(200, 5, seed=1)
    b = rng.standard_normal(200)
    theta = SketchOperator(SketchKind.PSRHT, 64, 200, seed=0)
    for variant in (GsVariant.RGS, GsVariant.CGS2):
        dec = arnoldi(A, b, 15, variant=variant, theta=theta, policy=UNIFIED64)
        assert _arnoldi_error(A, dec) < 1e-12, variant
        assert dec.H.shape == (16, 15)
        assert dec.beta > 0


def test_arnoldi_lucky_breakdown():
    # b an exact eigenvector: the Krylov subspace is 1-dimensional
    A = SparseMatrix(csr=scipy.sparse.eye(30, format="csr") * 2.0)
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
    theta = SketchOperator(SketchKind.PSRHT, 200, n, seed=0)
    res = gmres(A, b, m=150, variant=variant, theta=theta, policy=UNIFIED64,
                tol=1e-12)
    assert res.final_residual < 1e-10
    assert np.linalg.norm(res.x - x_star) / np.linalg.norm(x_star) < 1e-8
    assert res.converged


def test_gmres_matches_direct_solve(rng):
    A = generate_random_sparse(150, 6, seed=5)
    b = rng.standard_normal(150)
    theta = SketchOperator(SketchKind.PSRHT, 128, 150, seed=1)
    res = gmres(A, b, m=100, theta=theta, policy=UNIFIED64, tol=1e-12)
    x_ref = scipy.sparse.linalg.spsolve(A.to_scipy().tocsc(), b)
    assert np.linalg.norm(res.x - x_ref) / np.linalg.norm(x_ref) < 1e-9
    assert res.factors is not None  # randomized run returns its factors


def test_gmres_residual_history_decreases(rng):
    A = generate_laplacian_2d(10)
    b = rng.standard_normal(A.n)
    theta = SketchOperator(SketchKind.PSRHT, 80, A.n, seed=0)
    res = gmres(A, b, m=60, theta=theta, policy=UNIFIED64)
    h = res.residual_history
    assert np.all(np.diff(h) <= 1e-15)  # monotone (estimated) residual
    # the Givens estimate agrees with the true residual at the end
    assert abs(h[-1] - res.final_residual) <= 1e-8 + 0.1 * res.final_residual


def test_gmres_preconditioned_converges_faster(rng):
    A = generate_random_sparse(300, 8, seed=2, diag_shift=0.1)
    b = rng.standard_normal(300)
    theta = SketchOperator(SketchKind.PSRHT, 200, 300, seed=0)
    plain = gmres(A, b, m=40, theta=theta, policy=UNIFIED64)
    pre = gmres(A, b, m=40, theta=theta, policy=UNIFIED64,
                preconditioner=ilu0(A))
    assert pre.final_residual < plain.final_residual


_BREAKDOWN_CASES = pytest.mark.parametrize(
    "variant,policy", [(GsVariant.RGS, UNIFIED64), (GsVariant.RGS, MIXED32_64),
                       (GsVariant.CGS2, UNIFIED64)],
    ids=["rgs-f64", "rgs-mixed", "cgs2-f64"])


def _diagonal(values, n=4096, seed=0):
    """diag(values) repeated to n rows, and a seeded right-hand side."""
    A = SparseMatrix(csr=scipy.sparse.diags(
        np.asarray(values)[np.arange(n) % len(values)]))
    return A, np.random.default_rng(seed).standard_normal(n)


@_BREAKDOWN_CASES
def test_gmres_breakdown_is_not_convergence(variant, policy):
    # A has three distinct eigenvalues, so the Krylov space is exhausted after
    # three columns and the guard trips on the fourth; the breaking column is
    # kept with a zero subdiagonal, which solves the system in binary64 and
    # leaves the binary32 plateau under the mixed policy, and convergence is
    # read from the true residual only
    A, b = _diagonal([1.0, 2.0, 3.0])
    theta = SketchOperator(SketchKind.PSRHT, 200, A.n, seed=0)
    tol = 1e-10
    res = gmres(A, b, m=10, variant=variant, theta=theta, policy=policy,
                tol=tol)
    assert res.breakdown
    assert res.converged == (res.final_residual <= tol)
    assert res.iterations == 3 and res.residual_history[-1] == 0.0
    if policy is UNIFIED64:
        assert res.final_residual <= tol
    else:
        assert res.final_residual <= 1e-5  # criterion 7's band for rgs

    dec = arnoldi(A, b, 10, variant=variant, theta=theta, policy=policy)
    assert dec.breakdown
    assert dec.Q.shape == (A.n, 3) and dec.H.shape == (4, 3)
    assert np.all(dec.H[3] == 0.0)
    if policy is UNIFIED64:
        assert _arnoldi_error(A, dec) <= 1e-14


@_BREAKDOWN_CASES
def test_gmres_singular_breakdown_keeps_previous_iterate(variant, policy):
    # A = diag(0, 1, ...) and b has a component in its null space: the
    # Krylov space is spent after two columns and the projected operator is
    # singular there, so the breaking column is dropped and the previous
    # iterate returned; keeping it would divide by a vanishing pivot
    A, b = _diagonal([0.0, 1.0])
    theta = SketchOperator(SketchKind.PSRHT, 200, A.n, seed=0)
    res = gmres(A, b, m=10, variant=variant, theta=theta, policy=policy,
                tol=1e-10)
    assert res.breakdown and not res.converged
    assert res.iterations == 1
    assert np.all(np.isfinite(res.x)) and np.linalg.norm(res.x) < 1e3
    # the optimum over all x is ||P_null b|| / ||b||, about 0.7083
    assert res.final_residual <= 0.72


@st.composite
def _spectra(draw):
    """1 to 6 eigenvalues in [0.5, 10], at least 0.25 apart."""
    d = draw(st.integers(1, 6))
    slack = 9.5 - 0.25 * (d - 1)
    cuts = sorted(draw(st.lists(st.floats(0.0, slack), min_size=d,
                                max_size=d)))
    return [0.5 + c + 0.25 * i for i, c in enumerate(cuts)]


@given(values=_spectra(), n=st.integers(64, 4096), seed=st.integers(0, 2**32),
       k_extra=st.integers(0, 55))
def test_krylov_exhausts_diagonal_spectrum(values, n, seed, k_extra):
    # d distinct eigenvalues exhaust the Krylov space after d columns, so
    # GMRES converges within d + 1 iterations whether the guard trips at
    # step d (the kept column solves) or not (step d + 1 then does)
    d = len(values)
    m = d + 2
    A, b = _diagonal(values, n, seed)
    theta = SketchOperator(SketchKind.PSRHT, m + 1 + k_extra, n, seed=seed)
    tol = 1e-10
    for variant in (GsVariant.RGS, GsVariant.CGS2):
        res = gmres(A, b, m, variant=variant, theta=theta, policy=UNIFIED64,
                    tol=tol)
        assert res.converged and res.iterations <= d + 1, variant
        assert abs(res.residual_history[-1] - res.final_residual) <= tol
        dec = arnoldi(A, b, m, variant=variant, theta=theta, policy=UNIFIED64)
        if dec.breakdown:
            j = dec.Q.shape[1]
            assert dec.H.shape == (j + 1, j) and np.all(dec.H[j] == 0.0)
            assert _arnoldi_error(A, dec) <= 1e-13, variant


def test_gmres_stops_on_true_residual():
    # the sketched estimate reaches tol one iteration before the true
    # residual does; stopping on the estimate left the solve unconverged
    A = generate_laplacian_2d(30)
    b = A.matvec(np.random.default_rng(0).standard_normal(A.n))
    theta = SketchOperator(SketchKind.PSRHT, 100, A.n, seed=0)
    tol = 1e-10
    res = gmres(A, b, m=80, theta=theta, policy=UNIFIED64,
                preconditioner=ilu0(A), tol=tol)
    assert res.residual_history[-1] <= tol
    assert res.final_residual <= tol
    assert res.converged


@pytest.mark.parametrize("method, m", [("gmres", 200), ("arnoldi", 80)])
def test_krylov_rejects_sketch_below_m_plus_one(monkeypatch, method, m):
    # the sketched least squares needs a row per basis vector; without the
    # check the run failed in the Householder append, after its matvecs
    A = generate_laplacian_2d(60)
    b = A.matvec(np.random.default_rng(0).standard_normal(A.n))
    theta = SketchOperator(SketchKind.PSRHT, 60, A.n, seed=0)
    precond = ilu0(A)
    matvecs = []
    matvec = SparseMatrix.matvec

    def counted(self, x):
        matvecs.append(1)
        return matvec(self, x)

    monkeypatch.setattr(SparseMatrix, "matvec", counted)
    with pytest.raises(ValueError, match=rf"k >= {m + 1} sketch rows.*k=60"):
        if method == "gmres":
            gmres(A, b, m=m, theta=theta, policy=UNIFIED64,
                  preconditioner=precond, tol=1e-10)
        else:
            arnoldi(A, b, m, theta=theta, policy=UNIFIED64)
    assert not matvecs


def test_gmres_zero_rhs():
    A = generate_laplacian_2d(5)
    res = gmres(A, np.zeros(A.n), m=10, variant=GsVariant.MGS, tol=1e-12)
    assert res.converged and np.all(res.x == 0.0)
    res = gmres(A, np.zeros(A.n), m=10, variant=GsVariant.MGS)
    assert res.converged is None and np.all(res.x == 0.0)
    assert res.factors.Q.shape == (A.n, 0)  # factors under every variant


def test_gmres_without_tolerance_reports_no_convergence_flag():
    # without a tolerance there is nothing to compare against: the flag is
    # absent, not False, even at a residual near the unit roundoff
    A = generate_laplacian_2d(15)
    b = A.matvec(np.ones(A.n))
    theta = SketchOperator(SketchKind.PSRHT, 200, A.n, seed=0)
    res = gmres(A, b, m=40, theta=theta, policy=UNIFIED64,
                preconditioner=ilu0(A))
    assert res.final_residual < 1e-13
    assert res.converged is None


def test_gmres_mixed_precision_reaches_coarse_accuracy(rng):
    A = generate_laplacian_2d(12)
    b = rng.standard_normal(A.n)
    theta = SketchOperator(SketchKind.PSRHT, 140, A.n, seed=0)
    res = gmres(A, b, m=120, theta=theta, policy=MIXED32_64)
    assert res.final_residual < 1e-4  # binary32-scale plateau


@pytest.mark.parametrize("variant", [GsVariant.RGS, GsVariant.MGS],
                         ids=lambda v: v.value)
def test_gmres_operator_overflowing_binary32_raises(rng, variant):
    # GMRES does not rescale the operator: A q = 1e39 q overflows the
    # binary32 format that the mixed policy stores the basis in
    A = SparseMatrix(csr=scipy.sparse.eye(50, format="csr") * 1e39)
    theta = SketchOperator(SketchKind.PSRHT, 20, A.n, seed=0)
    with pytest.raises(NonFiniteError) as exc, np.errstate(all="ignore"):
        gmres(A, rng.standard_normal(A.n), m=10, variant=variant, theta=theta,
              policy=MIXED32_64, tol=1e-8)
    assert exc.value.column == 2  # b / ||b|| is stored, A q_1 is not


def test_best_attainable_residual(rng):
    A = generate_laplacian_2d(8)
    b = rng.standard_normal(A.n)
    theta = SketchOperator(SketchKind.PSRHT, 48, A.n, seed=0)
    res = gmres(A, b, m=30, theta=theta, policy=UNIFIED64)
    tau = best_attainable_residual(A, res.factors.Q[:, :res.iterations], b)
    # GMRES extracts (nearly) all the accuracy its basis supports
    assert res.final_residual <= 10.0 * max(tau, 1e-15)
    assert best_attainable_residual(A, np.zeros((A.n, 0)), b) == 1.0


def test_best_attainable_residual_of_zero_rhs_is_zero():
    # what gmres reports as final_residual for b = 0, with no 0/0 warning
    A = generate_laplacian_2d(4)
    b = np.zeros(A.n)
    res = gmres(A, b, m=5, variant=GsVariant.CGS, policy=UNIFIED64)
    assert res.final_residual == 0.0
    assert best_attainable_residual(A, np.eye(A.n, 3), b) == 0.0


@pytest.mark.parametrize("method", [gmres, arnoldi])
def test_krylov_rejects_negative_m(method):
    A = generate_laplacian_2d(4)
    with pytest.raises(ValueError, match=r"m >= 0 .* got m=-1"):
        method(A, np.ones(A.n), -1, variant=GsVariant.CGS, policy=UNIFIED64)


@pytest.mark.parametrize("method", [gmres, arnoldi])
def test_krylov_rejects_rgs_without_a_sketch(method):
    A = generate_laplacian_2d(4)
    with pytest.raises(ValueError, match="needs a sketch operator"):
        method(A, np.ones(A.n), 3, variant=GsVariant.RGS)


def test_gmres_rejects_a_right_hand_side_of_the_wrong_length():
    A = generate_laplacian_2d(4)
    for b in (np.ones(A.n + 1), np.ones((A.n, 1))):
        with pytest.raises(ValueError, match="right-hand side length"):
            gmres(A, b, 3, variant=GsVariant.CGS, policy=UNIFIED64)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_gmres_rejects_a_non_finite_right_hand_side(value):
    # checked before b / ||b|| is formed, so no 0/0 or inf/inf warning
    A = generate_laplacian_2d(4)
    b = np.ones(A.n)
    b[5] = value
    with pytest.raises(NonFiniteError,
                       match="^non-finite right-hand side at column 1$"):
        gmres(A, b, 3, variant=GsVariant.CGS, policy=UNIFIED64)


def test_gmres_rejects_a_right_hand_side_whose_norm_overflows():
    # every entry of b = A·1 is finite, but ||b|| overflows binary64; b / inf
    # would be a zero column, reported as a breakdown with r_ii = 0
    A = SparseMatrix(csr=scipy.sparse.eye(3, format="csr") * 1e200)
    b = A.matvec(np.ones(A.n))
    for variant in GsVariant:
        theta = SketchOperator(SketchKind.RADEMACHER, 3, A.n, seed=0)
        with pytest.raises(NonFiniteError,
                           match="^non-finite norm of the right-hand side"):
            gmres(A, b, 2, variant=variant, theta=theta, policy=UNIFIED64)
