"""Exact integer linear algebra over graph cycle lattices.

Provides arbitrary-precision integer matrices, fraction-free determinants,
Smith normal form with its unimodular transforms, and the weighted cycle
pairing of a multigraph together with its cokernel (the component group)
and the associated flat torus data.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .graphs import DomainError, Multigraph, _record, check_int, int_map


@_record
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        tup = tuple(tuple(row) for row in rows)
        for row in tup:
            for x in row:
                # a plain int passes without building the message
                if type(x) is not int:
                    check_int(x, "matrix entry")
        widths = {len(r) for r in tup}
        if len(widths) > 1:
            raise DomainError("ragged matrix rows")
        return IntMatrix(tup)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DomainError("matrix dimensions do not compose")
        ot = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def det(self) -> int:
        if self.rows != self.cols:
            raise DomainError("determinant of a non-square matrix")
        return _det_bareiss([list(r) for r in self.entries])

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def leading_principal_minors(self) -> list[int]:
        if self.rows != self.cols:
            raise DomainError("principal minors of a non-square matrix")
        return [
            _det_bareiss([list(r[: k + 1]) for r in self.entries[: k + 1]])
            for k in range(self.rows)
        ]


def _det_bareiss(a: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact over the integers."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U @ matrix @ V == D over the integers.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d1 | d2 | ... along the diagonal. Pivots are chosen as a smallest
    magnitude nonzero entry of the remaining block, which keeps the
    intermediate coefficients small in practice; the classical
    add-the-offending-row step enforces the divisibility chain.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            # with no swap, every row_sub cleared its entry of column t and
            # col_sub never writes column t, so row and column t are clear
            if not dirty:
                break
        chained = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    row_sub(t, i, -1)
                    chained = False
                    break
            if not chained:
                break
        if not chained:
            continue
        t += 1
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    U = IntMatrix.from_rows(u)
    D = IntMatrix.from_rows(a)
    V = IntMatrix.from_rows(v)
    if __debug__:
        assert (U @ matrix @ V).entries == D.entries
        assert abs(U.det()) == 1 and abs(V.det()) == 1
        assert D.is_diagonal()
        diag = [D.entries[i][i] for i in range(min(m, n))]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0 if x else y == 0
    return U, D, V


def tau_matrix(
    graph: Multigraph,
    weights: Mapping[str, int],
    basis: list[dict[str, int]] | None = None,
) -> IntMatrix:
    """Weighted pairing matrix of a cycle basis.

    Entry (i, j) is the sum over edges of w_e * c_i[e] * c_j[e], the pairing
    of cycle i against the weight-twisted image of cycle j. The determinant
    does not depend on the basis or on edge orientations; the matrix itself
    does. Defaults to the graph's own fundamental cycle basis.
    """
    w = int_map(weights, graph.edge_ids, "weight")
    eids = sorted(graph.edge_ids)
    if basis is None:
        cycles = graph.cycle_basis()
    else:
        cycles = [int_map(c, eids, "cycle coefficient") for c in basis]
    rows = []
    for ci in cycles:
        rows.append(
            tuple(sum(w[e] * ci[e] * cj[e] for e in eids) for cj in cycles)
        )
    return IntMatrix(tuple(rows))


@_record
class ComponentGroup:
    """Finite abelian group in invariant factor form d1 | d2 | ... | dr.

    A zero factor encodes an infinite cyclic summand; positive weights never
    produce one.
    """

    invariant_factors: tuple

    @property
    def order(self) -> int:
        prod = 1
        for d in self.invariant_factors:
            prod *= d
        return prod


def component_group(graph: Multigraph, weights: Mapping[str, int]) -> ComponentGroup:
    """Cokernel of the weighted cycle pairing, for weights >= 1.

    The order equals the determinant of the pairing matrix, hence also the
    weighted spanning forest count. With all-ones weights this is the
    critical group of the graph.
    """
    int_map(weights, graph.edge_ids, "weight", 1)
    gram = tau_matrix(graph, weights)
    _, d, _ = smith_normal_form(gram)
    factors = tuple(d.entries[i][i] for i in range(gram.rows))
    return ComponentGroup(factors)


@_record
class TropTorus:
    """Flat torus presented by a cycle pairing: rank, Gram matrix, covolume."""

    rank: int
    gram: IntMatrix
    covolume: int


def tropical_jacobian(graph: Multigraph, weights: Mapping[str, int]) -> TropTorus:
    """The quotient torus of the weighted cycle pairing, for weights >= 1.

    Its covolume (the Gram determinant) is the lattice index of the pairing
    image, and is positive: for positive weights the pairing is positive
    definite because a cycle pairs with itself to the weighted sum of its
    squared edge coefficients.
    """
    int_map(weights, graph.edge_ids, "weight", 1)
    gram = tau_matrix(graph, weights)
    cov = gram.det()
    return TropTorus(graph.betti1(), gram, cov)
