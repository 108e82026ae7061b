"""The eight-dimensional Kac-Palyutkin Hopf algebra and its standard
action on the two-generator skew polynomial plane.

Basis x^a y^b z^c indexed by a + 2b + 4c, with x, y grouplike of order 2,
z x = y z, z y = x z, z^2 = (1 + x + y - xy)/2, and

    comult(z) = (z@z + z@xz + yz@z - yz@xz) / 2.

The four algebra characters form a Klein four group; the action on
k<u,v>/(vu - i uv) sends x -> diag(-1,1), y -> diag(1,-1) and z to the
swap of u and v.
"""

from __future__ import annotations

from ..hopf import Character, CharacterGroup, HopfAction, HopfAlgebra
from ..linalg import Vec
from ..ncalg import GradedAlgebra
from ..scalars import Cyc, HALF, I, MINUS_ONE, ONE

LABELS = ["1", "x", "y", "xy", "z", "xz", "yz", "xyz"]


def _idx(a: int, b: int, c: int) -> int:
    return (a % 2) + 2 * (b % 2) + 4 * (c % 2)


def _split(i: int) -> tuple[int, int, int]:
    return i % 2, (i >> 1) % 2, (i >> 2) % 2


def _mul_basis(i: int, j: int) -> Vec:
    a, b, c = _split(i)
    d, e, f = _split(j)
    if c:
        d, e = e, d  # z x = y z and z y = x z swap the pair
    aa, bb = (a + d) % 2, (b + e) % 2
    if c + f < 2:
        return {_idx(aa, bb, c + f): ONE}
    # z^2 = (1 + x + y - xy)/2
    out: Vec = {}
    for (da, db), sign in (((0, 0), ONE), ((1, 0), ONE), ((0, 1), ONE), ((1, 1), MINUS_ONE)):
        out[_idx(aa + da, bb + db, 0)] = sign * HALF
    return out


def kac_palyutkin_hopf() -> HopfAlgebra:
    mult = [[_mul_basis(i, j) for j in range(8)] for i in range(8)]

    z, xz, yz = _idx(0, 0, 1), _idx(1, 0, 1), _idx(0, 1, 1)
    dz = [(z, z, HALF), (z, xz, HALF), (yz, z, HALF), (yz, xz, -HALF)]
    comult = []
    for i in range(8):
        a, b, c = _split(i)
        g = _idx(a, b, 0)
        if not c:
            comult.append([(i, i, ONE)])
        else:
            terms = []
            for u, v, coeff in dz:
                gu = next(iter(_mul_basis(g, u)))
                gv = next(iter(_mul_basis(g, v)))
                terms.append((gu, gv, coeff))
            comult.append(terms)

    counit = [ONE] * 8
    antipode = [{i: ONE} for i in range(8)]
    antipode[xz], antipode[yz] = {yz: ONE}, {xz: ONE}
    return HopfAlgebra(LABELS, {0: ONE}, mult, comult, counit, antipode)


def kac_palyutkin_characters(hopf: HopfAlgebra) -> CharacterGroup:
    def char(label: str, on_x: Cyc, on_y: Cyc, on_z: Cyc) -> Character:
        values = []
        for i in range(8):
            a, b, c = _split(i)
            values.append((on_x ** a) * (on_y ** b) * (on_z ** c))
        return Character(hopf, values, label)

    return CharacterGroup(
        hopf,
        [
            char("eps", ONE, ONE, ONE),
            char("g", ONE, ONE, MINUS_ONE),
            char("gp", MINUS_ONE, MINUS_ONE, -I),
            char("ggp", MINUS_ONE, MINUS_ONE, I),
        ],
    )


def skew_plane(max_degree: int = 12) -> GradedAlgebra:
    """k<u,v> with v u = i u v."""
    return GradedAlgebra(["u", "v"], [{(1, 0): ONE, (0, 1): -I}], max_degree=max_degree)


def kac_palyutkin_action(hopf: HopfAlgebra, alg: GradedAlgebra) -> HopfAction:
    # x -> diag(-1, 1), y -> diag(1, -1), z -> swap (A_1 coords: 0 = u, 1 = v)
    u, v = alg.nf_word((0,)), alg.nf_word((1,))

    def negate_coord(w: Vec, coord: int) -> Vec:
        return {k: (-c if k == coord else c) for k, c in w.items()}

    images = []
    for i in range(8):
        a, b, c = _split(i)
        iu, iv = (v, u) if c else (u, v)  # rightmost factor z acts first
        if b:
            iu, iv = negate_coord(iu, 1), negate_coord(iv, 1)
        if a:
            iu, iv = negate_coord(iu, 0), negate_coord(iv, 0)
        images.append([iu, iv])
    return HopfAction.from_matrices(hopf, alg, images)
