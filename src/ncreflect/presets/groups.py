"""Concrete finite groups used by the built-in examples.

``matrix_group`` closes a list of exact 2x2 matrices under multiplication
and returns the abstract group together with the faithful representation
that produced it, so group actions on two generators can be fed straight
back in.  The closure stops at ``CLOSURE_CAP`` elements, the bound on the
dimension of every acting Hopf algebra.
"""

from __future__ import annotations

from math import lcm

from ..linalg import Matrix
from ..scalars import ONE, ZERO, zeta

# The set-up (the axioms, the characters and their convolution table)
# costs about (dim H)^3 scalar products, more on a dual group algebra: on a
# 2-core host `preset run "l41-cyclic-n-m(z9,1,32)" --max-degree 2` (order
# 32, conductor 288) takes about 1 s, order 64 3 s and order 144 27-38 s.
# Every Hopf algebra, built in or read from a spec, has dimension at most
# this (docs/input-format.md, "Resource limits").
CLOSURE_CAP = 32


def dihedral8():
    """The dihedral group of order 8 as pairs r^s p^k (p of order 4):
    (r^s p^k)(r^t p^l) = r^(s+t) p^(k(-1)^t + l)."""
    labels = ["e", "p", "p2", "p3", "r", "rp", "rp2", "rp3"]

    def idx(s: int, k: int) -> int:
        return 4 * (s % 2) + (k % 4)

    table = [[0] * 8 for _ in range(8)]
    for s in range(2):
        for k in range(4):
            for t in range(2):
                for l in range(4):
                    sign = -1 if t else 1
                    table[idx(s, k)][idx(t, l)] = idx(s + t, sign * k + l)
    from ..hopf import Group

    return Group(labels, table)


def matrix_group(gens: list[Matrix]):
    """Close 2x2 matrices under product. Returns (group, rep, gen_indices)
    where rep[i] is the matrix of element i and gen_indices locates the
    given generators inside the group.  Products are told apart in Q(zeta_N),
    N the lcm of the generators' conductors, and ordered by ``Cyc.key``."""
    from ..hopf import Group

    N = lcm(*(x.n for g in gens for row in g.rows for x in row))

    def key(m: Matrix) -> tuple:
        return tuple(x.key_at(N) for row in m.rows for x in row)

    ident = Matrix.identity(gens[0].nrows)
    seen: dict[tuple, Matrix] = {key(ident): ident}
    frontier = [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            prod = g @ m
            k = key(prod)
            if k not in seen:
                if len(seen) >= CLOSURE_CAP:
                    raise ValueError(f"the group has more than {CLOSURE_CAP} elements, "
                                     f"above the maximum Hopf dimension {CLOSURE_CAP}")
                seen[k] = prod
                frontier.append(prod)
    rep = sorted(seen.values(), key=lambda m: (m != ident, [x.key() for r in m.rows for x in r]))
    labels = ["e"] + [f"g{i}" for i in range(1, len(rep))]
    lookup = {key(m): i for i, m in enumerate(rep)}
    table = [[lookup[key(a @ b)] for b in rep] for a in rep]
    group = Group(labels, table)
    gen_indices = [lookup[key(g)] for g in gens]
    return group, rep, gen_indices


def diagonal_scaling(a, b) -> Matrix:
    return Matrix([[a, ZERO], [ZERO, b]])


def off_diagonal_swap(lam) -> Matrix:
    """x -> lam*y, y -> -lam^{-1}*x (column convention)."""
    return Matrix([[ZERO, -lam.inverse()], [lam, ZERO]])


def cyclic_scaling_group(n: int, m: int):
    """<diag(zeta_n, 1), diag(1, zeta_m)> — a product of two cyclic groups."""
    gens = [diagonal_scaling(zeta(n, 1), ONE), diagonal_scaling(ONE, zeta(m, 1))]
    return matrix_group(gens)


def mystic_group(alpha: int, beta: int):
    """The mystic reflection group M(2, alpha, beta): all scalings
    diag(a, 1) with a^alpha = 1 together with all swaps x -> lam*y,
    y -> -lam^{-1}*x with lam^beta = 1."""
    if alpha < 1 or beta < 2:
        raise ValueError("mystic groups need alpha >= 1 and beta >= 2")
    if beta % 2 != 0 or beta % alpha != 0:
        raise ValueError("mystic groups need beta divisible by 2 and by alpha")
    gens = [off_diagonal_swap(ONE), off_diagonal_swap(zeta(beta, 1))]
    if alpha > 1:
        gens.insert(0, diagonal_scaling(zeta(alpha, 1), ONE))
    return matrix_group(gens)
