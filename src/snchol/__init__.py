"""Serial supernodal sparse Cholesky factorization.

Pipeline: fill-reducing ordering, symbolic analysis (elimination tree,
fundamental supernodes, merging, within-supernode reordering), then one of five
numeric methods sharing the same panel storage, plus supernodal solves and a
benchmark harness.
"""

from .kernels import KernelBackend, NotPositiveDefiniteError, get_backend
from .matrix import (MatrixMarketError, Permutation, PermutationFileError,
                     SymmetricSparseMatrix, SymmetricSparsePattern,
                     apply_symmetric_permutation, generate_spd, minimum_degree_order,
                     read_matrix_market, write_matrix_market)
from .numeric import (Analysis, FactorStorage, FactorizationResult, NonFiniteEntryError,
                      RunOptions, RunStats, UpdateWorkspace, analyze, deviation_from_reference,
                      factor_ll, factor_mf, factor_reference, factor_rl, factor_rlb,
                      run_factorization, scatter_into_factor, solve)
from .reorder import reorder_within_supernodes
from .symbolic import (BuildOptions, EliminationTree, RelativeIndexMap,
                       SymbolicFactor, build_symbolic_factor, elimination_tree,
                       fundamental_supernodes, merge_supernodes, stack_minimizing_postorder,
                       symbolic_factorization)

__version__ = "0.1.0"
