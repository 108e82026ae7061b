"""Independent brute-force oracles used to pin down engine expectations.

``dense_rref`` is the textbook dense Gauss-Jordan elimination that
``Matrix.rref`` is checked against; ``dense_eigenvectors`` reads the
kernel of stacked C - lam rows off it, the reference for
``linalg.eigenvectors``.

``augmentation_module`` builds A * S_+ or S_+ * A from every slice of a
subalgebra S, the reference for the covariant ideals, which the engine
builds from the generators of S alone.

The quotient oracle builds each graded slice the slow, obviously-correct
way: enumerate every free word of the degree, span the full two-sided
relation-ideal slice u * rho * v inside the free slice, and eliminate.
The engine's recursive construction must reproduce its basis and normal
forms exactly.
"""

from __future__ import annotations

from ncreflect.exprs import FreePoly, Word, p_degree
from ncreflect.linalg import SparseEch, Subspace, apply_cols
from ncreflect.scalars import ZERO, Cyc, ONE, coerce


def dense_rref(rows: list[list]) -> tuple[list[list[Cyc]], list[int]]:
    """Reduced row-echelon form (zero rows last) and the pivot columns."""
    m = [[coerce(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        hit = next((i for i in range(r, nrows) if not m[i][col].is_zero()), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def dense_eigenvectors(dim: int, maps) -> list[dict]:
    """Common eigenvectors of maps given as (columns, lam): the right
    kernel of the stacked dense rows of every C - lam, one sparse vector
    per free column of its RREF, in ascending order."""
    rows = [
        [cols[c].get(r, ZERO) - (lam if c == r else ZERO) for c in range(dim)]
        for cols, lam in maps
        for r in range(dim)
    ]
    red, pivots = dense_rref(rows) if rows else ([], [])
    out = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [ZERO] * dim
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        out.append({k: x for k, x in enumerate(v) if not x.is_zero()})
    return out


def augmentation_module(alg, sub_slices, max_degree: int, side: str) -> list[Subspace]:
    """Slices of A * S_+ (side "left") or S_+ * A (side "right"), by the
    recursion M_d = S_d + sum_i x_i M_{d - w_i} (or M_{d - w_i} x_i)."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = Subspace(alg.dim(d))
        if 1 <= d < len(sub_slices):
            for v in sub_slices[d].basis():
                acc.add(v)
        for i, w in enumerate(alg.weights):
            if w <= d:
                letter = alg.left_letter if side == "left" else alg.right_letter
                cols = letter(i, d - w)
                for v in out[d - w].basis():
                    acc.add(apply_cols(cols, v))
        out.append(acc)
    return out


def free_words(nletters: int, weights: list[int], degree: int) -> list[Word]:
    if degree == 0:
        return [()]
    out: list[Word] = []
    for i in range(nletters):
        if weights[i] <= degree:
            out.extend((i,) + rest for rest in free_words(nletters, weights, degree - weights[i]))
    return out


class QuotientOracle:
    """Full free-slice elimination of a presentation, one degree at a time."""

    def __init__(self, nletters: int, relations: list[FreePoly], weights: list[int] | None = None):
        self.nletters = nletters
        self.weights = weights if weights is not None else [1] * nletters
        self.relations = relations

    def slice(self, degree: int):
        words = sorted(free_words(self.nletters, self.weights, degree), reverse=True)
        idx = {w: c for c, w in enumerate(words)}
        ech = SparseEch(len(words))
        for rel in self.relations:
            n = p_degree(rel, self.weights)
            for a in range(degree - n + 1):
                for u in free_words(self.nletters, self.weights, a):
                    for v in free_words(self.nletters, self.weights, degree - n - a):
                        vec: dict[int, Cyc] = {}
                        for w, c in rel.items():
                            pos = idx[u + w + v]
                            cur = vec.get(pos)
                            new = c if cur is None else cur + c
                            if new.is_zero():
                                if cur is not None:
                                    del vec[pos]
                            else:
                                vec[pos] = new
                        ech.insert(vec)
        normal = sorted(words[c] for c in range(len(words)) if c not in ech.rows)
        return words, idx, ech, normal

    def dim(self, degree: int) -> int:
        return len(self.slice(degree)[3])

    def basis(self, degree: int) -> list[Word]:
        return self.slice(degree)[3]

    def nf(self, word: Word) -> dict[Word, Cyc]:
        degree = sum(self.weights[i] for i in word)
        words, idx, ech, _ = self.slice(degree)
        reduced = ech.reduce({idx[word]: ONE})
        return {words[c]: coeff for c, coeff in reduced.items()}
