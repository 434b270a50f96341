"""Reduced root systems with rational coordinates and their reflection data.

A root system here is a finite set of positive roots in Q^d, closed (up to
sign) under its own reflections, together with a non-negative rational
multiplicity attached to each reflection-group orbit.  Built-in families
cover the rank-one powers (sign flips per coordinate), the symmetric-group
system embedded via coordinate differences, and the hyperoctahedral B/D
families; anything else can be supplied as an explicit rational root list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .poly import ReflectionAction, compile_reflection
from .util import parse_rational

Vector = tuple[Fraction, ...]

# Largest dimension of a catalog or custom system, checked before any root is
# built: far above the d <= 5 the suites use, and a:d=N alone has N(N-1)/2
# roots of N entries each.
MAX_DIM = 16


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


def _parallel(a: Vector, b: Vector) -> bool:
    for k, ak in enumerate(a):
        if ak != 0:
            c = b[k] / ak
            return c != 0 and all(bi == c * ai for ai, bi in zip(a, b))
    return False  # a == 0, rejected elsewhere


def _orbit_partition(
    roots: Sequence[Vector], actions: Sequence[ReflectionAction]
) -> tuple[tuple[int, ...], ...]:
    """Partition root indices into orbits, checking reflection closure.

    Two positive roots are in one orbit when some chain of reflections in
    roots of the system links them (signs discarded); actions[i] is the
    compiled reflection in roots[i].
    """
    index: dict[Vector, int] = {}
    for i, r in enumerate(roots):
        index[r] = i
    parent = list(range(len(roots)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for alpha, action in zip(roots, actions):
        for j, beta in enumerate(roots):
            image = action.reflect_vector(beta)
            k = index.get(image)
            if k is None:
                k = index.get(tuple(-c for c in image))
            if k is None:
                raise RootSystemError(
                    f"system is not closed: reflecting {_fmt_vec(beta)} in "
                    f"{_fmt_vec(alpha)} leaves the root set"
                )
            ri, rj = find(j), find(k)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

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

    def unit(i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(d))

    def pair(i: int, j: int, sign: int) -> Vector:
        return tuple(
            Fraction(1 if k == i else (sign if k == j else 0)) for k in range(d)
        )

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
    """Read a {dim, roots, multiplicities} JSON description of a system."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        dim = data["dim"]
        if type(dim) is not int:  # neither a float nor a bool passes for one
            raise ValueError(f"dim must be an integer, got {dim!r}")
        _check_dim(dim)
        roots = [
            tuple(parse_rational(str(c)) for c in row) for row in data["roots"]
        ]
        mults = [parse_rational(str(m)) for m in data["multiplicities"]]
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
        roots = [tuple(Fraction(c) for c in row) for row in source]
        if not roots:
            raise RootSystemError("empty root list")
        dim = len(roots[0])

    for r in roots:
        if len(r) != dim:
            raise RootSystemError("roots of mixed dimension")
        if all(c == 0 for c in r):
            raise RootSystemError("zero vector is not a root")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if _parallel(roots[i], roots[j]):
                raise RootSystemError(
                    f"not reduced: {_fmt_vec(roots[i])} and {_fmt_vec(roots[j])} "
                    "are proportional"
                )

    actions = tuple(compile_reflection(r) for r in roots)
    orbits = _orbit_partition(roots, actions)

    if multiplicities is None:
        raise RootSystemError("multiplicities are required (one per orbit)")
    mults = [Fraction(m) if not isinstance(m, str) else parse_rational(m) for m in multiplicities]
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
        raise RootSystemError(
            f"expected {len(orbits)} multiplicities (one per orbit) or "
            f"{len(roots)} (one per root), got {len(mults)}"
        )

    return RootSystem(dim, tuple(roots), orbits, per_orbit, actions)
