"""scipy's sparse product chain: the bit-level oracle of the walk engine.

:class:`~repro.engine.WalkEngine` builds every destination and attribute
matrix by rows, reproducing scipy's ``csr_matmat`` entry for entry.
:class:`ProductChain` computes the same matrices the plain way, from the
compiled arrays alone, so a test can compare the two in ``indptr``,
``indices`` and ``data``:

* a FORWARD step is the 0/1 pointer matrix, a BACKWARD step its transpose
  with every row divided by the in-degree;
* the destination matrix is ``I · T_1 ⋯ T_l`` (the first step's matrix
  itself, or the identity over live rows for the empty scheme), every
  further step one scipy product, rows normalised;
* the attribute matrix is the destination matrix times the column's
  one-hot indicator over non-⊥ codes (tombstoned rows read as ⊥), rows
  normalised again.
"""

import numpy as np
from scipy import sparse

from repro.walks.schemes import Direction


def normalize_rows(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Every non-empty row divided by its sum; stored zeros pruned first."""
    matrix = matrix.tocsr(copy=True)
    matrix.eliminate_zeros()
    row_counts = np.diff(matrix.indptr)
    sums = np.zeros(row_counts.size)
    non_empty = row_counts > 0
    if matrix.data.size:
        sums[non_empty] = np.add.reduceat(matrix.data, matrix.indptr[:-1][non_empty])
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    matrix.data = matrix.data * np.repeat(scale, row_counts)
    return matrix


class ProductChain:
    """scipy's chain over one state of the compiled arrays.

    Step matrices, indicators and destination matrices are memoised, so a
    chain is only valid until the next mutation: build a new one after it.
    """

    def __init__(self, compiled):
        self.compiled = compiled
        self._steps: dict = {}
        self._indicators: dict = {}
        self._destinations: dict = {}

    def step_matrix(self, step) -> sparse.csr_matrix:
        """The row-stochastic transition matrix of one walk step."""
        if step not in self._steps:
            fk = step.foreign_key
            pointers = self.compiled.fk_target_rows(fk.name)
            shape = (
                self.compiled.relations[fk.source].num_rows,
                self.compiled.relations[fk.target].num_rows,
            )
            linked = np.flatnonzero(pointers >= 0)
            matrix = sparse.csr_matrix(
                (np.ones(linked.size), (linked, pointers[linked])), shape=shape
            )
            if step.direction is Direction.BACKWARD:
                matrix = matrix.T.tocsr()
                matrix.sort_indices()
                in_degree = np.diff(matrix.indptr)
                matrix.data = 1.0 / np.repeat(in_degree, in_degree)
            self._steps[step] = matrix
        return self._steps[step]

    def destination_matrix(self, scheme) -> sparse.csr_matrix:
        """``W(·, s)`` for every start row."""
        if scheme not in self._destinations:
            if not scheme.steps:
                alive = self.compiled.relations[scheme.start_relation].alive
                mass = sparse.diags(alive.astype(np.float64), format="csr")
            else:
                mass = self.step_matrix(scheme.steps[0])
                for step in scheme.steps[1:]:
                    mass = mass @ self.step_matrix(step)
            self._destinations[scheme] = normalize_rows(mass)
        return self._destinations[scheme]

    def indicator(self, relation: str, attribute: str) -> sparse.csr_matrix:
        """The one-hot indicator of a column's non-⊥ codes, tombstoned rows ⊥."""
        key = (relation, attribute)
        if key not in self._indicators:
            compiled_relation = self.compiled.relations[relation]
            column = compiled_relation.columns[attribute]
            codes = np.where(compiled_relation.alive, column.codes, -1)
            valued = np.flatnonzero(codes >= 0)
            self._indicators[key] = sparse.csr_matrix(
                (np.ones(valued.size), (valued, codes[valued])),
                shape=(codes.size, len(column.vocab)),
            )
        return self._indicators[key]

    def attribute_matrix(self, scheme, attribute) -> tuple[sparse.csr_matrix, np.ndarray]:
        """``(matrix, vocabulary)`` of ``d_{f,s}[A]`` for every start row."""
        product = self.destination_matrix(scheme) @ self.indicator(scheme.end_relation, attribute)
        vocab = self.compiled.relations[scheme.end_relation].columns[attribute].vocab
        return normalize_rows(product), vocab


def assert_same_bits(matrix: sparse.csr_matrix, oracle: sparse.csr_matrix, context) -> None:
    """Equal shape and equal ``indptr``/``indices``/``data``, entry for entry."""
    assert matrix.shape == oracle.shape, context
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, name), getattr(oracle, name)), (context, name)
