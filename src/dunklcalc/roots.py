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
from operator import neg
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
    reflected in roots[i] (by actions[i]) and looked up at once.  For
    j != i, r_i(beta_j) = -beta_j exactly when the two roots are
    proportional.  Roots linked by a chain of reflections share an orbit;
    a reflection swaps its pairs of roots, so each pair is joined once.
    """
    index: dict[Vector, int] = {}
    for i, r in enumerate(roots):
        index.setdefault(r, i)
        index.setdefault(tuple(map(neg, r)), i)
    parent = list(range(len(roots)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (alpha, action) in enumerate(zip(roots, actions)):
        images = list(map(action.reflect_vector, roots))
        for j, k in enumerate(map(index.get, images)):
            if k is None:
                raise RootSystemError(
                    f"system is not closed: reflecting {_fmt_vec(roots[j])} in "
                    f"{_fmt_vec(alpha)} leaves the root set"
                )
            if k > j:  # r_i swaps beta_j and beta_k up to sign, so k < j repeats a pair
                ri, rj = find(j), find(k)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
            elif k == j and j != i and images[j] != roots[j]:  # equal: alpha is orthogonal
                raise RootSystemError(
                    f"not reduced: {_fmt_vec(roots[min(i, j)])} and "
                    f"{_fmt_vec(roots[max(i, j)])} are proportional"
                )

    groups: dict[int, list[int]] = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


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
    actions = tuple(compile_reflection(r) for r in roots)
    orbits = _orbit_partition(roots, actions)

    if multiplicities is None:
        raise RootSystemError("multiplicities are required (one per orbit)")
    mults = [
        m if type(m) is Fraction else parse_rational(m) if isinstance(m, str) else Fraction(m)
        for m in multiplicities
    ]
    for m in mults:
        if m < 0:
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
