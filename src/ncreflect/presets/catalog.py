"""Catalogue of built-in worked examples.

Fixed names build one specific setup; the two parameterised families accept
arguments in the name itself::

    l41-cyclic-n-m(q,n,m)   skew plane y x = q x y under the scaling group
                            <diag(zeta_n, 1), diag(1, zeta_m)>, e.g.
                            l41-cyclic-n-m(z3,2,3)
    l41-mystic(alpha,beta)  the quarter plane y x = -x y under the mystic
                            reflection group M(2, alpha, beta), e.g.
                            l41-mystic(2,4)

``build`` returns a ready-to-analyse bundle of algebra, Hopf algebra,
action and character group, plus per-example options (a declared
homological determinant to cross-check, generator images of a candidate
Nakayama automorphism, the cyclotomic conductor used for divisor
candidates, and declared hypotheses).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from pathlib import Path

from ..exprs import parse, parse_scalar, show_scalar
from ..hopf import (
    CharacterGroup,
    Group,
    HopfAction,
    HopfAlgebra,
    dual_group_algebra,
    dual_group_characters,
    group_algebra,
    group_linear_characters,
)
from ..linalg import Matrix, Vec
from ..ncalg import GradedAlgebra
from ..scalars import Cyc, I, ONE, ZERO, coerce
from . import groups, kac


@dataclass
class Preset:
    name: str
    description: str
    algebra: GradedAlgebra
    hopf: HopfAlgebra
    action: HopfAction
    chars: CharacterGroup
    conductor: int
    options: dict

    def __post_init__(self) -> None:
        # graded_components reads the component of character i of a
        # dual-group action off the basis words of G-degree i, and analyze
        # skips the component certificate on that ground: both need
        # character i to be evaluation at group element i
        if self.action.kind == "dual_group":
            n = self.action.group.order
            if [ch.values for ch in self.chars.chars] != [
                    [ONE if h == i else ZERO for h in range(n)] for i in range(n)]:
                raise AssertionError("the characters of a dual-group action are "
                                     "not the evaluations in group order")


def _algebra(gen_names: list[str], rel_texts: list[str], max_degree: int) -> GradedAlgebra:
    rels = [parse(t, gen_names) for t in rel_texts]
    return GradedAlgebra(gen_names, rels, max_degree=max_degree)


def _trivial(max_degree: int) -> Preset:
    alg = _algebra(["x", "y"], ["y*x - x*y"], max_degree)
    group = Group.cyclic(1)
    hopf = group_algebra(group)
    act = HopfAction.from_group_matrices(hopf, alg, {0: Matrix.identity(2)})
    chars = group_linear_characters(hopf)
    return Preset(
        "trivial",
        "commutative plane under the trivial group (smoke test)",
        alg,
        hopf,
        act,
        chars,
        4,
        {"hdet": "triv", "nakayama": None,
         "assertions": {"domain": True, "as_regular_fixed_ring": True}},
    )


def _e22(max_degree: int) -> Preset:
    alg = _algebra(["x", "y", "z"], ["z*x + x*z", "y*x - z*y", "y*z - x*y"], max_degree)
    group = groups.dihedral8()
    hopf = dual_group_algebra(group)
    lab = group.labels.index
    act = HopfAction.from_grading(hopf, alg, [lab("r"), lab("rp"), lab("rp2")])
    chars = dual_group_characters(hopf)
    return Preset(
        "e22-dualD8",
        "three-generator algebra graded by the dihedral group of order 8, "
        "acted on by the dual group algebra",
        alg,
        hopf,
        act,
        chars,
        4,
        {"hdet": "rp3", "nakayama": None,
         "assertions": {"domain": True, "as_regular_fixed_ring": True}},
    )


def _e23(max_degree: int) -> Preset:
    alg = _algebra(["u", "d"], ["d*u^2 - u^2*d", "d^2*u - u*d^2"], max_degree)
    group = groups.dihedral8()
    hopf = dual_group_algebra(group)
    lab = group.labels.index
    act = HopfAction.from_grading(hopf, alg, [lab("p"), lab("r")])
    chars = dual_group_characters(hopf)
    return Preset(
        "e23-downup-dualD8",
        "a down-up algebra graded by the dihedral group of order 8; its "
        "fixed component is not a polynomial ring",
        alg,
        hopf,
        act,
        chars,
        4,
        {"hdet": "p2", "nakayama": None,
         "assertions": {"domain": True, "as_regular_fixed_ring": False}},
    )


def _e42(max_degree: int) -> Preset:
    alg = kac.skew_plane(max_degree)
    hopf = kac.kac_palyutkin_hopf()
    act = kac.kac_palyutkin_action(hopf, alg)
    chars = kac.kac_palyutkin_characters(hopf)
    nakayama: list[Vec] = [{0: -I}, {1: I}]  # u -> -i u, v -> i v
    return Preset(
        "e42-kacpalyutkin",
        "skew plane v u = i u v under the eight-dimensional Hopf algebra "
        "that is neither a group algebra nor a dual group algebra",
        alg,
        hopf,
        act,
        chars,
        8,
        {"hdet": "ggp", "nakayama": nakayama,
         "assertions": {"domain": True, "as_regular_fixed_ring": True}},
    )


def _cyclic(q: Cyc, n: int, m: int, max_degree: int) -> Preset:
    if n < 1 or m < 1:
        raise ValueError("cyclic scaling orders must be positive")
    if q.is_zero():
        raise ValueError("the skew parameter q must be nonzero")
    alg = GradedAlgebra(["x", "y"], [{(1, 0): ONE, (0, 1): -q}], max_degree=max_degree)
    group, rep, gen_idx = groups.cyclic_scaling_group(n, m)
    hopf = group_algebra(group)
    act = HopfAction.from_group_matrices(
        hopf, alg, {g: rep[g] for g in gen_idx}
    )
    chars = group_linear_characters(hopf)
    qtext = show_scalar(q)[0]
    return Preset(
        f"l41-cyclic-n-m({qtext},{n},{m})",
        f"skew plane y x = {qtext} x y under the scaling group of "
        f"orders ({n}, {m})",
        alg,
        hopf,
        act,
        chars,
        lcm(4, n, m, q.n),
        {"hdet": None, "nakayama": None,
         "assertions": {"domain": True, "as_regular_fixed_ring": True}},
    )


def _mystic(alpha: int, beta: int, max_degree: int) -> Preset:
    alg = GradedAlgebra(["x", "y"], [{(1, 0): ONE, (0, 1): ONE}], max_degree=max_degree)
    group, rep, gen_idx = groups.mystic_group(alpha, beta)
    hopf = group_algebra(group)
    act = HopfAction.from_group_matrices(
        hopf, alg, {g: rep[g] for g in gen_idx}
    )
    chars = group_linear_characters(hopf)
    return Preset(
        f"l41-mystic({alpha},{beta})",
        f"quarter plane y x = -x y under the mystic reflection group "
        f"M(2, {alpha}, {beta}) of order {group.order}",
        alg,
        hopf,
        act,
        chars,
        lcm(4, alpha, beta),
        {"hdet": None, "nakayama": None,
         "assertions": {"domain": True, "as_regular_fixed_ring": True}},
    )


_FIXED = {
    "trivial": _trivial,
    "e22-dualD8": _e22,
    "e23-downup-dualD8": _e23,
    "e42-kacpalyutkin": _e42,
}

_CYCLIC_RE = re.compile(r"^l41-cyclic-n-m\(([^,()]+),([0-9]+),([0-9]+)\)$")
_MYSTIC_RE = re.compile(r"^l41-mystic\(([0-9]+),([0-9]+)\)$")


def listing() -> list[tuple[str, str]]:
    """(name or name pattern, one-line description) for every example."""
    out = [
        ("trivial", "commutative plane under the trivial group"),
        ("e22-dualD8", "dihedral-graded three-generator algebra, dual group action"),
        ("e23-downup-dualD8", "dihedral-graded down-up algebra, dual group action"),
        ("e42-kacpalyutkin", "skew plane under the eight-dimensional Kac-Palyutkin algebra"),
        ("l41-cyclic-n-m(q,n,m)", "skew plane y x = q x y under diagonal scalings, "
                                  "e.g. l41-cyclic-n-m(z3,2,3)"),
        ("l41-mystic(alpha,beta)", "quarter plane under a mystic reflection group, "
                                   "e.g. l41-mystic(2,4)"),
    ]
    return out


def build(name: str, max_degree: int = 12) -> Preset:
    fixed = _FIXED.get(name)
    if fixed is not None:
        return fixed(max_degree)
    m = _CYCLIC_RE.match(name)
    if m:
        q = coerce(parse_scalar(m.group(1)))
        return _cyclic(q, int(m.group(2)), int(m.group(3)), max_degree)
    m = _MYSTIC_RE.match(name)
    if m:
        return _mystic(int(m.group(1)), int(m.group(2)), max_degree)
    known = ", ".join(n for n, _ in listing())
    raise KeyError(f"unknown preset {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# shipped files

DATA_DIR = Path(__file__).with_name("data")

FIXTURE_FORMAT = "ncreflect-fixture/1"

# catalogue name -> stem of the presentation (.spec) and fixture
# (.fixture.json) files shipped under DATA_DIR.  Only the concrete
# parameter choices used as worked examples get files.
_FILE_STEMS = {
    "trivial": "trivial",
    "e22-dualD8": "e22",
    "e23-downup-dualD8": "e23",
    "e42-kacpalyutkin": "e42",
    "l41-cyclic-n-m(z3,2,3)": "cyclic-z3-2-3",
    "l41-mystic(1,2)": "mystic-1-2",
    "l41-mystic(2,4)": "mystic-2-4",
}


def shipped() -> list[str]:
    """Catalogue names that come with a presentation file and a fixture."""
    return list(_FILE_STEMS)


def presentation_path(name: str) -> Path | None:
    """Path of the shipped presentation file, or None for free parameters."""
    stem = _FILE_STEMS.get(name)
    return None if stem is None else DATA_DIR / f"{stem}.spec"


def fixture_path(name: str) -> Path | None:
    """Path of the shipped golden fixture, or None for free parameters."""
    stem = _FILE_STEMS.get(name)
    return None if stem is None else DATA_DIR / f"{stem}.fixture.json"
