"""Randomized Gram-Schmidt orthogonalization with oblivious subspace
embeddings, emulated multi-precision arithmetic, a-posteriori embedding
certification, and a sketched GMRES built on top."""

from .precision import (MIXED32_64, UNIFIED32, UNIFIED64, PrecisionPolicy,
                        policy_from_name)
from .sketch import (EmbeddingParams, SketchKind, SketchOperator, fwht,
                     required_sketch_dim, rounding_sketch_trial,
                     vector_certificate_dim)
from .gram_schmidt import (BreakdownError, ClassicalGsState, GsVariant,
                           NonFiniteError, QrFactors, RgsState,
                           classical_factorize, rgs_factorize)
from .certification import (StabilityCertificate, certificates, epsilon_of,
                            loss_of_orthogonality, omega_bar)
from .krylov import (ArnoldiDecomposition, GmresResult, Ilu0Preconditioner,
                     arnoldi, best_attainable_residual, gmres, ilu0)
from .io import (ExperimentReport, REPORT_COLUMNS, SparseMatrix,
                 generate_laplacian_2d, generate_random_sparse,
                 read_matrix_market, read_report, synthetic_matrix,
                 write_report)

__version__ = "0.1.0"
