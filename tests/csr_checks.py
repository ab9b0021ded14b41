"""Read a `Propagation` through scipy's CSR matrix rebuilt from its arrays.

The tests' one route to a dense, transposed, compared or canonical-checked
view of a propagation matrix, and the oracle for its product.
"""

import scipy.sparse as sp


def as_scipy(P) -> sp.csr_matrix:
    return sp.csr_matrix((P.data, P.indices, P.indptr), shape=P.shape)
