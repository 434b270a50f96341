"""Reduced root systems with rational coordinates and their reflection data.

A root system here is a finite set of positive roots in Q^d, closed (up to
sign) under its own reflections and with no two roots on one line, together
with a non-negative rational multiplicity attached to each reflection-group
orbit; one walk over the compiled reflections checks both properties and
finds the orbits.  Built-in families cover the rank-one powers (sign flips
per coordinate), the symmetric-group system embedded via coordinate
differences, and the hyperoctahedral B/D families; anything else can be
supplied as an explicit rational root list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import and_, eq, ne, neg
from typing import Sequence

from .poly import Coeff, ReflectionAction, as_coeff, compile_reflection
from .util import parse_rational

Vector = tuple[Coeff, ...]  # entries through as_coeff: ints where integral

# Largest dimension of a catalog or custom system, checked before any root is
# built: far above the d <= 5 the suites use, and a:d=N alone has N(N-1)/2
# roots of N entries each.
MAX_DIM = 16

# Largest number of positive roots, checked before any root entry is parsed.
# A finite reflection group with rational roots is a Weyl group, and none in
# d <= MAX_DIM has more positive roots than B_16 (256; E_8 + E_8 has 240).
MAX_ROOTS = 256


class RootSystemError(ValueError):
    """Root data that is not a valid reduced, closed, weighted system."""


@dataclass(frozen=True)
class RootSystem:
    dim: int
    positive_roots: tuple[Vector, ...]
    orbits: tuple[tuple[int, ...], ...]
    multiplicities: tuple[Fraction, ...]
    # reflections[i] is the compiled action of positive_roots[i]; it is
    # derived from the roots, so it takes no part in equality or repr.
    reflections: tuple[ReflectionAction, ...] = field(compare=False, repr=False)

    def kappa_by_root(self) -> tuple[Fraction, ...]:
        """Multiplicity of each positive root, aligned with positive_roots."""
        out = [Fraction(0)] * len(self.positive_roots)
        for orbit, kappa in zip(self.orbits, self.multiplicities):
            for i in orbit:
                out[i] = kappa
        return tuple(out)


def _orbit_partition(
    roots: Sequence[Vector], actions: Sequence[ReflectionAction]
) -> tuple[tuple[int, ...], ...]:
    """Closure, reduction and orbits, in one walk of every root reflected in every root.

    Each root and its negative are indexed (the first root keeps each key),
    so one lookup finds an image up to sign; the whole root list is
    reflected in roots[i] (by actions[i]) and looked up at once.  A signed
    reflection permutes and negates the coordinate columns of the list,
    which are zipped back into rows; a general one maps each row with
    reflect_vector.  For j != i, r_i(beta_j) = -beta_j exactly when the two
    roots are proportional, and the first defect in j is reported.  The
    orbit of a root is then every root its images reach.
    """
    n = len(roots)
    index: dict[Vector, int] = {}
    negatives = []
    for i, r in enumerate(roots):
        negatives.append(tuple(map(neg, r)))
        index.setdefault(r, i)
        index.setdefault(negatives[i], i)
    columns = {1: list(zip(*roots)), -1: list(zip(*negatives))}  # by sign, then coordinate
    moves = []  # moves[i][j]: the index of r_i(beta_j), up to sign

    for i, (alpha, action) in enumerate(zip(roots, actions)):
        if action.signed is None:
            images = list(map(action.reflect_vector, roots))
        else:
            images = list(zip(*[columns[s][t] for t, s in action.signed]))
        targets = list(map(index.get, images))
        left = targets.index(None) if None in targets else n
        # the j below left with r_i(beta_j) = -beta_j: i itself, or a defect
        flipped = map(and_, map(eq, targets, range(left)), map(ne, images, roots))
        for j in compress(range(left), flipped):
            if j != i:
                raise RootSystemError(
                    f"not reduced: {_fmt_vec(roots[min(i, j)])} and "
                    f"{_fmt_vec(roots[max(i, j)])} are proportional"
                )
        if left < n:
            raise RootSystemError(
                f"system is not closed: reflecting {_fmt_vec(roots[left])} in "
                f"{_fmt_vec(alpha)} leaves the root set"
            )
        moves.append(targets)

    images_of = list(zip(*moves))  # images_of[j]: beta_j's image under each reflection
    orbits: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for first in range(n):
        if first not in seen:
            orbit, frontier = {first}, [first]
            while frontier:
                new = set(images_of[frontier.pop()]) - orbit
                orbit |= new
                frontier += new
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def _fmt_vec(v: Vector) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _check_dim(d: int) -> None:
    if d < 1:
        raise RootSystemError("dimension must be positive")
    if d > MAX_DIM:
        raise RootSystemError(f"dimension {d} exceeds the limit of {MAX_DIM}")


def _check_count(n: int, what: str = "roots") -> None:
    if n > MAX_ROOTS:
        raise RootSystemError(f"{n} {what} exceed the limit of {MAX_ROOTS}")


def _catalog_roots(name: str) -> tuple[int, list[Vector]]:
    kind, _, rest = name.partition(":")
    params: dict[str, str] = {}
    for piece in rest.split(","):
        if piece:
            key, _, value = piece.partition("=")
            params[key.strip()] = value.strip()
    try:
        d = int(params["d"])
    except (KeyError, ValueError):
        raise RootSystemError(f"catalog name {name!r} needs an integer d parameter")
    _check_dim(d)

    zero = (0,) * d

    def unit(i: int) -> Vector:
        return zero[:i] + (1,) + zero[i + 1:]

    def pair(i: int, j: int, sign: int) -> Vector:
        return zero[:i] + (1,) + zero[i + 1:j] + (sign,) + zero[j + 1:]

    if kind == "z2":
        return d, [unit(i) for i in range(d)]
    if kind in {"a", "b", "d"} and d < 2:
        raise RootSystemError(f"family {kind!r} needs d >= 2")
    if kind == "a":
        return d, [pair(i, j, -1) for i in range(d) for j in range(i + 1, d)]
    if kind == "b":
        short = [unit(i) for i in range(d)]
        long_ = [pair(i, j, s) for i in range(d) for j in range(i + 1, d) for s in (-1, 1)]
        return d, short + long_
    if kind == "d":
        return d, [pair(i, j, s) for i in range(d) for j in range(i + 1, d) for s in (-1, 1)]
    raise RootSystemError(f"unknown catalog system {name!r}")


def load_custom_file(path: str) -> tuple[int, list[Vector], list[Fraction]]:
    """Read a {dim, roots, multiplicities} JSON description of a system.

    Every count and row length is checked before any entry is parsed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        dim = data["dim"]
        if type(dim) is not int:  # neither a float nor a bool passes for one
            raise ValueError(f"dim must be an integer, got {dim!r}")
        _check_dim(dim)
        rows, mults = data["roots"], data["multiplicities"]
        _check_count(len(rows))
        _check_count(len(mults), "multiplicities")
        for row in rows:
            if len(row) != dim:
                raise ValueError(f"a root has {len(row)} entries, not {dim}")
        roots = [tuple(as_coeff(parse_rational(str(c))) for c in row) for row in rows]
        mults = [parse_rational(str(m)) for m in mults]
    except (KeyError, TypeError, ValueError) as exc:
        raise RootSystemError(f"bad custom system file {path!r}: {exc}") from exc
    return dim, roots, mults


def build_root_system(
    source: str | Sequence[Sequence[Fraction | int | str]],
    multiplicities: Sequence[Fraction | int | str] | None = None,
) -> RootSystem:
    """Build and validate a root system from a catalog name or a root list.

    Catalog names are 'z2:d=3', 'a:d=3', 'b:d=2', 'd:d=4' or
    'custom:<json file>'.  Multiplicities are given per orbit, in the order
    the orbits are reported (sorted by their first root); a list with one
    entry per root is also accepted and checked for orbit constancy.
    """
    if isinstance(source, str):
        if source.startswith("custom:"):
            dim, roots, file_mults = load_custom_file(source[len("custom:"):])
            if multiplicities is None:
                multiplicities = file_mults
        else:
            dim, roots = _catalog_roots(source)
    else:
        _check_count(len(source))
        roots = [tuple(as_coeff(c) for c in row) for row in source]
        if not roots:
            raise RootSystemError("empty root list")
        dim = len(roots[0])

    for r in roots:
        if len(r) != dim:
            raise RootSystemError("roots of mixed dimension")
        if not any(r):
            raise RootSystemError("zero vector is not a root")
    actions = tuple(map(compile_reflection, roots))
    orbits = _orbit_partition(roots, actions)

    if multiplicities is None:
        raise RootSystemError("multiplicities are required (one per orbit)")
    mults = [
        m if type(m) is Fraction else parse_rational(m) if isinstance(m, str) else Fraction(m)
        for m in multiplicities
    ]
    for m in mults:
        if m.numerator < 0:
            raise RootSystemError(f"negative multiplicity {m}")

    if len(mults) == len(orbits):
        per_orbit = tuple(mults)
    elif len(mults) == len(roots):
        per_orbit = []
        for orbit in orbits:
            values = {mults[i] for i in orbit}
            if len(values) > 1:
                raise RootSystemError(
                    "multiplicity is not constant on the orbit of "
                    f"{_fmt_vec(roots[orbit[0]])}"
                )
            per_orbit.append(values.pop())
        per_orbit = tuple(per_orbit)
    else:
        counts = f"{len(orbits)} multiplicities (one per orbit)"
        if len(roots) != len(orbits):
            counts += f" or {len(roots)} (one per root)"
        raise RootSystemError(f"expected {counts}, got {len(mults)}")

    return RootSystem(dim, tuple(roots), orbits, per_orbit, actions)
