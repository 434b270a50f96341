import itertools
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import dunklcalc.roots
from dunklcalc.operators import DunklContext
from dunklcalc.poly import (
    Poly,
    PolyError,
    as_coeff,
    compile_reflection,
    compose_reflection,
    reflection_variable_images,
)
from dunklcalc.roots import (
    MAX_DIM,
    MAX_ROOTS,
    RootSystemError,
    build_root_system,
)

Q = Fraction


def dot(x, y):
    return sum((Q(a) * Q(b) for a, b in zip(x, y)), Q(0))


def reflect(alpha, x):
    """x - 2<a,x>/<a,a> a: the generic reflection, oracle of the compiled actions."""
    coef = 2 * dot(alpha, x) / dot(alpha, alpha)
    return tuple(Q(c) - coef * Q(a) for c, a in zip(x, alpha))


def total_multiplicity(rs):
    return sum(rs.kappa_by_root(), Q(0))


def bessel_index(rs):
    return DunklContext(rs).bessel_index


def reflect_compiled(alpha, x):
    return compile_reflection(alpha).reflect_vector(x)


def test_z2_single_root_constants():
    rs = build_root_system("z2:d=1", [Q(1, 2)])
    assert rs.positive_roots == ((Q(1),),)
    assert total_multiplicity(rs) == Q(1, 2)
    assert bessel_index(rs) == 0


def test_b2_orbit_sizes_and_constants():
    # two short positive roots and two long ones
    rs = build_root_system("b:d=2", [1, 2])
    assert sorted(len(o) for o in rs.orbits) == [2, 2]
    assert total_multiplicity(rs) == 2 * 1 + 2 * 2 == 6
    assert bessel_index(rs) == 6


def test_a2_in_r3_constants():
    rs = build_root_system("a:d=3", [1])
    assert len(rs.positive_roots) == 3
    assert len(rs.orbits) == 1
    assert total_multiplicity(rs) == 3
    assert bessel_index(rs) == Q(7, 2)


def test_zero_multiplicity_constants():
    rs = build_root_system("z2:d=3", [0, 0, 0])
    assert total_multiplicity(rs) == 0
    assert bessel_index(rs) == Q(1, 2)


def test_z2d2_mixed_constants():
    rs = build_root_system("z2:d=2", ["1", "3/2"])
    assert total_multiplicity(rs) == Q(5, 2)
    assert bessel_index(rs) == Q(5, 2)


def test_d4_single_orbit():
    rs = build_root_system("d:d=4", [Q(1, 2)])
    assert len(rs.positive_roots) == 12
    assert len(rs.orbits) == 1
    assert total_multiplicity(rs) == 6


def test_reflect_examples():
    assert reflect_compiled((Q(1),), (Q(3),)) == (Q(-3),)
    a, b = Q(5), Q(-7, 3)
    assert reflect_compiled((Q(1), Q(-1)), (a, b)) == (b, a)


def test_reflect_zero_root_rejected():
    with pytest.raises(PolyError, match="zero root"):
        compile_reflection((Q(0), Q(0)))


rational = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
vec3 = st.tuples(rational, rational, rational)


@given(vec3, vec3)
def test_reflect_involution_and_isometry(alpha, x):
    if all(c == 0 for c in alpha):
        return
    assert reflect_compiled(alpha, reflect_compiled(alpha, x)) == x
    y = (Q(1), Q(-2), Q(1, 3))
    assert dot(reflect_compiled(alpha, x), reflect_compiled(alpha, y)) == dot(x, y)


@given(vec3, st.integers(1, 7))
def test_reflect_scale_invariant(alpha, c):
    if all(v == 0 for v in alpha):
        return
    scaled = tuple(Q(c) * v for v in alpha)
    x = (Q(2), Q(-1, 2), Q(5))
    assert reflect_compiled(alpha, x) == reflect_compiled(scaled, x)


def test_custom_closure_failure():
    with pytest.raises(RootSystemError, match="not closed"):
        build_root_system([(1, 0), (0, 1), (1, 1)], [1, 1, 1])


@pytest.mark.parametrize("roots", [
    [(1, 0), (2, 0)],
    [(1, 0), (-1, 0)],
    [(1, 2), (1, 2)],
    [(Q(1, 2), 1), (1, 2)],
    [(1, 0), (0, 1), (2, 0)],
])
def test_non_reduced_rejected(roots):
    with pytest.raises(RootSystemError, match="not reduced"):
        build_root_system(roots, [1] * len(roots))


@pytest.mark.parametrize("roots, named", [
    # (2, 0) and (-2, 0) share one +- key, which the earlier (2, 0) keeps
    ([(1, 0), (2, 0), (-2, 0)], r"\(1, 0\) and \(2, 0\)"),
    # found reflecting the earlier root in the later one, still named first
    ([(1, 0), (-1, 0)], r"\(1, 0\) and \(-1, 0\)"),
])
def test_non_reduced_names_the_earlier_root_first(roots, named):
    with pytest.raises(RootSystemError, match=f"not reduced: {named} are proportional"):
        build_root_system(roots, [1] * len(roots))


def test_input_with_both_defects_is_rejected():
    # b2 plus (2, 2) is neither reduced nor closed ((2, 2) reflected in
    # (1, 0) is (-2, 2), which is no root up to sign); the walk reports
    # whichever defect it reaches first, and both are a RootSystemError
    roots = build_root_system("b:d=2", [1, 1]).positive_roots + ((2, 2),)
    with pytest.raises(RootSystemError, match="not reduced|not closed"):
        build_root_system([list(r) for r in roots], [1] * len(roots))


SMALL_CATALOG = ["z2:d=1", "z2:d=3", "a:d=3", "b:d=2", "b:d=3", "d:d=3"]


@given(
    name=st.sampled_from(SMALL_CATALOG),
    data=st.data(),
    factor=st.builds(Q, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
)
@settings(max_examples=60, deadline=None)
def test_inserted_multiple_of_a_root_is_rejected(name, data, factor):
    roots = list(dunklcalc.roots._catalog_roots(name)[1])
    alpha = data.draw(st.sampled_from(roots))
    at = data.draw(st.integers(0, len(roots)))
    roots.insert(at, tuple(factor * c for c in alpha))
    # a +-1 copy keeps the set closed, so the walk must call it not reduced;
    # another multiple may leave the set first, and either defect is an error
    match = "not reduced" if abs(factor) == 1 else "not reduced|not closed"
    with pytest.raises(RootSystemError, match=match):
        build_root_system(roots, [1] * len(roots))


def test_non_reduced_names_both_roots_of_the_line():
    with pytest.raises(RootSystemError, match=r"not reduced: \(1, 2\) and \(-2, -4\) are proportional"):
        build_root_system([(1, 2), (-2, -4)], [1, 1])


def test_zero_vector_error_takes_precedence_over_reduction():
    with pytest.raises(RootSystemError, match="zero vector is not a root"):
        build_root_system([(1, 1), (2, 2), (0, 0)], [1, 1, 1])


def test_negative_multiplicity_rejected():
    with pytest.raises(RootSystemError, match="negative"):
        build_root_system("z2:d=2", [1, -1])


def test_per_root_multiplicity_must_be_orbit_constant():
    # the two long roots of b2 lie in one orbit
    rs = build_root_system("b:d=2", [1, 1])
    roots = [list(r) for r in rs.positive_roots]
    per_root = [Q(1)] * len(roots)
    long_orbit = max(rs.orbits, key=lambda o: sum(abs(c) for c in rs.positive_roots[o[0]]))
    per_root[long_orbit[0]] = Q(2)
    with pytest.raises(RootSystemError, match="orbit"):
        build_root_system(roots, per_root)


def test_per_root_multiplicities_accepted_when_constant():
    rs = build_root_system([(1, 0), (0, 1)], [Q(1, 2), Q(3)])
    assert rs.multiplicities == (Q(1, 2), Q(3))


def test_multiplicity_count_mismatch():
    with pytest.raises(RootSystemError, match="expected"):
        build_root_system("b:d=2", [1, 2, 3])


def test_multiplicity_count_names_both_counts_when_they_differ():
    with pytest.raises(RootSystemError, match=r"expected 2 multiplicities \(one per orbit\) "
                       r"or 4 \(one per root\), got 3$"):
        build_root_system("b:d=2", [1, 2, 3])


def test_multiplicity_count_named_once_when_every_root_is_an_orbit():
    with pytest.raises(RootSystemError, match=r"expected 2 multiplicities \(one per orbit\), got 1$"):
        build_root_system("z2:d=2", ["1"])


def test_rotated_sign_flip_system():
    # an orthogonal pair away from the coordinate axes is still valid
    rs = build_root_system([(3, 4), (-4, 3)], [1, 2])
    assert len(rs.orbits) == 2


def test_catalog_name_errors():
    with pytest.raises(RootSystemError):
        build_root_system("z2", [1])
    with pytest.raises(RootSystemError):
        build_root_system("a:d=1", [1])


def test_bessel_index_lower_bound():
    # total multiplicity >= 0 and d >= 1 force the index above -1/2
    cases = [
        ("z2:d=1", [0]),
        ("z2:d=1", [2]),
        ("z2:d=3", [0, 0, 0]),
        ("a:d=3", [Q(1, 2)]),
        ("b:d=3", [0, Q(1, 2)]),
        ("d:d=4", [Q(3, 2)]),
    ]
    for system, kappas in cases:
        assert bessel_index(build_root_system(system, kappas)) >= Q(-1, 2)


def test_closure_exhaustive_on_catalog():
    for system, kappas in [
        ("z2:d=2", [1, 1]),
        ("a:d=3", [1]),
        ("b:d=2", [1, 2]),
        ("b:d=3", [1, 2]),
        ("d:d=4", [1]),
    ]:
        rs = build_root_system(system, kappas)
        table = set(rs.positive_roots)
        for alpha in rs.positive_roots:
            for beta in rs.positive_roots:
                image = reflect(alpha, beta)
                assert image in table or tuple(-c for c in image) in table


def test_custom_file_loading(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(
        '{"dim": 2, "roots": [["1", "0"], ["0", "1"]], "multiplicities": ["1/2", "2"]}'
    )
    rs = build_root_system(f"custom:{path}")
    assert rs.multiplicities == (Q(1, 2), Q(2))


@pytest.mark.parametrize("dim", ["2.7", "2.0", "true", '"2"'])
def test_custom_file_dim_must_be_an_integer(tmp_path, dim):
    path = tmp_path / "system.json"
    path.write_text(
        f'{{"dim": {dim}, "roots": [["1", "0"], ["0", "1"]], "multiplicities": ["1"]}}'
    )
    with pytest.raises(RootSystemError, match="dim must be an integer"):
        build_root_system(f"custom:{path}")


# -- compiled reflection actions ---------------------------------------------

CATALOG = [f"z2:d={d}" for d in range(1, 6)] + [
    f"{kind}:d={d}" for kind in ("a", "b", "d") for d in range(2, 6)
]
# roots whose reflection is not a signed permutation, the last with two
# nonzero entries of unequal size
GENERAL_ROOTS = [(3, 4), (1, 2, 2), (1, 1, 1), (1, 1, 1, 1), (0, 1, 0, -2, 0)]
# roots of catalog shape, but scaled and outside any catalog system
SCALED_ROOTS = [(0, 0, -3), (2, 0, 2), (0, 5, 0, -5)]
# a rational rotation of b:d=2 (by the angle with cosine 3/5)
ROTATED_B2 = [(3, 4), (-4, 3), (-1, 7), (7, 1)]


def _catalog_system(name):
    count = len(dunklcalc.roots._catalog_roots(name)[1])
    return build_root_system(name, [0] * count)


def _actions_by_dim():
    """dim -> [(root, its compiled action, True if a signed permutation)]."""
    out = {}
    for name in CATALOG:
        rs = _catalog_system(name)
        for root, action in zip(rs.positive_roots, rs.reflections):
            out.setdefault(rs.dim, []).append((root, action, True))
    for roots, signed in [(SCALED_ROOTS, True), (GENERAL_ROOTS, False)]:
        for root in roots:
            rs = build_root_system([root], [1])  # one root is a closed system
            out.setdefault(rs.dim, []).append((rs.positive_roots[0], rs.reflections[0], signed))
    return out


ACTIONS = _actions_by_dim()

# dim -> every exponent tuple of total degree at most 6, drawn without rejection
EXPONENTS = {
    dim: [e for e in itertools.product(range(7), repeat=dim) if sum(e) <= 6]
    for dim in ACTIONS
}


def _expand_through_images(p, alpha):
    """The generic substitution: each monomial expanded in the linear images."""
    images = reflection_variable_images(alpha, dot(alpha, alpha))
    out = Poly.zero(p.dim)
    for e, c in p.terms.items():
        term = Poly.const(p.dim, c)
        for image, k in zip(images, e):
            term = term * image**k
        out = out + term
    return out


def test_action_shape_follows_root_shape():
    for cases in ACTIONS.values():
        for root, action, signed in cases:
            assert (action.signed is not None) is signed, root
            assert (action.images is None) is signed, root


@pytest.mark.parametrize("dim", sorted(ACTIONS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_compiled_action_matches_generic_expansion(dim, data):
    terms = data.draw(st.dictionaries(st.sampled_from(EXPONENTS[dim]), rational, max_size=5))
    p = Poly(dim, terms)
    x = tuple(data.draw(st.lists(rational, min_size=dim, max_size=dim)))
    for root, action, _ in ACTIONS[dim]:
        assert compose_reflection(p, action) == _expand_through_images(p, root), root
        assert action.reflect_vector(x) == reflect(root, x), root


def _reference_partition(roots):
    """The orbit partition through the generic reflect, as built before."""
    index = {r: i for i, r in enumerate(roots)}
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for alpha in roots:
        for j, beta in enumerate(roots):
            image = reflect(alpha, beta)
            k = index.get(image, index.get(tuple(-c for c in image)))
            ri, rj = find(j), find(k)
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def test_orbits_match_reflect_based_partition(tmp_path):
    systems = [_catalog_system(name) for name in CATALOG]
    path = tmp_path / "rotated_b2.json"
    path.write_text(json.dumps({
        "dim": 2,
        "roots": [[str(c) for c in r] for r in ROTATED_B2],
        "multiplicities": ["1/2", "3"],
    }))
    custom = build_root_system(f"custom:{path}")
    assert len(custom.orbits) == 2
    systems.append(custom)
    for rs in systems:
        reference = _reference_partition(rs.positive_roots)
        assert rs.orbits == reference
        kappas = [Q(k + 1, 2) for k in range(len(reference))]
        expected = [None] * len(rs.positive_roots)
        for orbit, kappa in zip(reference, kappas):
            for i in orbit:
                expected[i] = kappa
        rebuilt = build_root_system([list(r) for r in rs.positive_roots], kappas)
        assert rebuilt.kappa_by_root() == tuple(expected)


def test_reflections_leave_equality_and_repr_alone():
    rs = build_root_system("b:d=2", [1, 2])
    assert len(rs.reflections) == len(rs.positive_roots)
    assert "reflections" not in repr(rs)
    again = build_root_system("b:d=2", [1, 2])
    assert rs == again and hash(rs) == hash(again)


@pytest.mark.parametrize("source, kappas", [("d:d=4", [1]), ([(3, 4), (-4, 3)], [1, 2])])
def test_integral_root_entries_are_ints(source, kappas):
    rs = build_root_system(source, kappas)
    for root, action in zip(rs.positive_roots, rs.reflections):
        assert {type(c) for c in root} == {int}
        assert action.root == root and type(action.norm) is int


def test_rational_root_entry_stays_a_fraction():
    rs = build_root_system([("1/2", 3)], [1])
    assert [type(c) for c in rs.positive_roots[0]] == [Fraction, int]
    assert rs.reflections[0].norm == Q(37, 4)


@pytest.mark.parametrize("source, kappas", [("a:d=3", [1]), ([(3, 4), (-4, 3)], [1, 2])])
def test_fraction_entries_build_the_same_system(source, kappas):
    rs = build_root_system(source, kappas)
    fractions = build_root_system([[Q(c) for c in r] for r in rs.positive_roots], kappas)
    assert fractions == rs and hash(fractions) == hash(rs)


def test_reduced_check_keys_lines_exactly():
    # the two directions agree to double precision, so a float key would
    # call them one line; exactly they are two, and the set is not closed
    with pytest.raises(RootSystemError, match="not closed"):
        build_root_system([(1, 10**17), (1, 10**17 + 1)], [1, 1])


# -- dimension cap -------------------------------------------------------------


def _no_roots(*args, **kwargs):
    raise AssertionError("a root entry was built past the dimension cap")


@pytest.mark.parametrize("name", ["z2:d=1000000", "a:d=100000", f"d:d={MAX_DIM + 1}"])
def test_catalog_dimension_capped_before_any_root(name, monkeypatch):
    monkeypatch.setattr(dunklcalc.roots, "Fraction", _no_roots)
    with pytest.raises(RootSystemError, match="exceeds the limit"):
        build_root_system(name, [1])


def test_custom_dimension_capped_before_any_root(tmp_path, monkeypatch):
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1000000, "roots": [["1"]], "multiplicities": ["1"]}')
    monkeypatch.setattr(dunklcalc.roots, "parse_rational", _no_roots)
    with pytest.raises(RootSystemError, match="exceeds the limit"):
        build_root_system(f"custom:{path}")


def test_dimension_cap_is_inclusive():
    assert build_root_system(f"z2:d={MAX_DIM}", [1] * MAX_DIM).dim == MAX_DIM


# -- root-count cap --------------------------------------------------------------


def test_root_list_capped_before_any_entry(monkeypatch):
    monkeypatch.setattr(dunklcalc.roots, "Fraction", _no_roots)
    with pytest.raises(RootSystemError, match=f"{MAX_ROOTS + 1} roots exceed the limit of {MAX_ROOTS}"):
        build_root_system([(1, k) for k in range(MAX_ROOTS + 1)], [1])


def test_custom_root_count_capped_before_any_entry(tmp_path, monkeypatch):
    path = tmp_path / "many.json"
    roots = [["1", str(k)] for k in range(MAX_ROOTS + 1)]
    path.write_text(json.dumps({"dim": 2, "roots": roots, "multiplicities": ["1"]}))
    monkeypatch.setattr(dunklcalc.roots, "parse_rational", _no_roots)
    with pytest.raises(RootSystemError, match=f"exceed the limit of {MAX_ROOTS}"):
        build_root_system(f"custom:{path}")


def test_root_cap_is_inclusive():
    assert len(build_root_system(f"b:d={MAX_DIM}", [1, 1]).positive_roots) == MAX_ROOTS


# -- the lean build against the build it replaced ------------------------------


def parent_compile(alpha):
    """(root, norm, pivot, support, signed, unit) as compile_reflection computed them.

    A copy of the compilation before int entries were taken as they are and
    the unit was computed in ints.
    """
    root = tuple(as_coeff(a) for a in alpha)
    dim = len(root)
    norm = as_coeff(sum(a * a for a in root))
    pivot = max(range(dim), key=lambda i: abs(root[i]))
    support = tuple(i for i, a in enumerate(root) if a)
    signed = [(i, 1) for i in range(dim)]
    if len(support) == 1:
        k = support[0]
        signed[k] = (k, -1)
    elif len(support) == 2 and abs(root[support[0]]) == abs(root[support[1]]):
        j, k = support
        s = -1 if (root[j] > 0) == (root[k] > 0) else 1
        signed[j], signed[k] = (k, s), (j, s)
    else:
        return root, norm, pivot, (), None, None
    unit = as_coeff(Fraction(2 if len(support) == 1 else 1, root[support[0]]))
    return root, norm, pivot, support, tuple(signed), unit


def parent_orbits(roots):
    """The orbits of a root list, or its RootSystemError, as the walk found them.

    A copy of the checks and the one reflection walk before the images were
    reflected and looked up with map and only distinct roots were joined.
    """
    roots = [tuple(as_coeff(c) for c in r) for r in roots]
    for r in roots:
        if len(r) != len(roots[0]):
            raise RootSystemError("roots of mixed dimension")
        if all(c == 0 for c in r):
            raise RootSystemError("zero vector is not a root")
    actions = [compile_reflection(r) for r in roots]
    index = {}
    for i, r in enumerate(roots):
        index.setdefault(r, i)
        index.setdefault(tuple(-c for c in r), i)
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    fmt = dunklcalc.roots._fmt_vec
    for i, (alpha, action) in enumerate(zip(roots, actions)):
        for j, beta in enumerate(roots):
            image = action.reflect_vector(beta)
            k = index.get(image)
            if k is None:
                raise RootSystemError(
                    f"system is not closed: reflecting {fmt(beta)} in {fmt(alpha)} "
                    "leaves the root set"
                )
            if k == j and j != i and image != beta:
                raise RootSystemError(
                    f"not reduced: {fmt(roots[min(i, j)])} and {fmt(roots[max(i, j)])} "
                    "are proportional"
                )
            ri, rj = find(j), find(k)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def parent_context_constants(rs):
    """(kappa per root, active roots, q, weight rows, Bessel index), computed per root."""
    kappa = [as_coeff(k) for k in rs.kappa_by_root()]
    bessel = sum(kappa, Fraction(rs.dim - 2, 2))
    active = [i for i, k in enumerate(kappa) if k != 0]
    q = 1
    for idx in active:
        k, action = kappa[idx], rs.reflections[idx]
        if action.signed is None:
            q = lcm(q, *((k * a).denominator for a in action.root))
        else:
            q = lcm(q, (2 * k if len(action.support) == 1 else k).denominator)
    # row j of an active root: the weight of its unit-free quotient in q D_j
    units = [action.unit or 1 for action in rs.reflections]
    rows = [[as_coeff(q * k * a * unit) for a in root] if k else None
            for root, k, unit in zip(rs.positive_roots, kappa, units)]
    return kappa, active, q, rows, bessel


def _signs(n):
    return itertools.product((1, -1), repeat=n)


# F4: the short roots e_i and (1, +-1, +-1, +-1)/2 form one orbit, which mixes
# sign flips with roots whose reflection is no signed permutation
F4 = (
    [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    + [tuple(1 if k == i else (s if k == j else 0) for k in range(4))
       for i in range(4) for j in range(i + 1, 4) for s in (-1, 1)]
    + [(Q(1, 2),) + tuple(Q(s, 2) for s in signs) for signs in _signs(3)]
)
CUSTOM_SYSTEMS = [
    ROTATED_B2, F4, [(3, 0), (0, Q(1, 2))], [(3, 4), (-4, 3)], [("1/2", 3)],
    *([root] for root in GENERAL_ROOTS + SCALED_ROOTS),
]
KAPPAS = [Q(0), Q(1, 2), Q(1, 3), Q(1), Q(3, 2), Q(2, 3), Q(2)]


@pytest.mark.parametrize("source", CATALOG + CUSTOM_SYSTEMS, ids=str)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_lean_build_matches_the_parent_build(source, data):
    roots = (dunklcalc.roots._catalog_roots(source)[1] if isinstance(source, str)
             else list(source))
    orbits = parent_orbits(roots)
    kappas = data.draw(st.lists(st.sampled_from(KAPPAS), min_size=len(orbits),
                                max_size=len(orbits)))
    if data.draw(st.booleans()):  # one multiplicity per root, as strings
        per_root = [None] * len(roots)
        for orbit, kappa in zip(orbits, kappas):
            for i in orbit:
                per_root[i] = str(kappa)
        kappas = per_root
    rs = build_root_system(source, kappas)
    assert rs.orbits == orbits
    for root, action in zip(rs.positive_roots, rs.reflections):
        fields = (action.root, action.norm, action.pivot, action.support, action.signed,
                  action.unit)
        assert fields == parent_compile(root)
    ctx = DunklContext(rs)
    kappa, active, q, rows, bessel = parent_context_constants(rs)
    assert (ctx._kappa, ctx._active, ctx._scale, ctx._rows) == (kappa, active, q, rows)
    assert [type(k) for k in ctx._kappa] == [type(k) for k in kappa]
    # every weight is an int: q clears the denominators of each root's row
    assert {type(w) for idx in active for w in ctx._rows[idx]} <= {int}
    assert ctx.bessel_index == bessel and type(ctx.bessel_index) is Fraction


BAD_ROOT_LISTS = [
    [(1, 0), (0, 1), (1, 1)],
    [(1, 0), (2, 0)],
    [(1, 0), (-1, 0)],
    [(1, 2), (1, 2)],
    [(Q(1, 2), 1), (1, 2)],
    [(1, 0), (0, 1), (2, 0)],
    [(1, 0), (2, 0), (-2, 0)],
    [(1, 0), (0, 1), (1, 1), (1, -1), (2, 2)],
    [(1, 2), (-2, -4)],
    [(1, 1), (2, 2), (0, 0)],
    [(1, 10**17), (1, 10**17 + 1)],
]


@pytest.mark.parametrize("roots", BAD_ROOT_LISTS, ids=str)
def test_lean_build_rejects_as_the_parent_build(roots):
    with pytest.raises(RootSystemError) as parent_err:
        parent_orbits(roots)
    with pytest.raises(RootSystemError) as err:
        build_root_system(roots, [1] * len(roots))
    assert str(err.value) == str(parent_err.value)


@given(
    name=st.sampled_from(SMALL_CATALOG),
    data=st.data(),
    factor=st.builds(Q, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
)
@settings(max_examples=60, deadline=None)
def test_lean_build_names_the_same_defect_as_the_parent_build(name, data, factor):
    roots = list(dunklcalc.roots._catalog_roots(name)[1])
    alpha = data.draw(st.sampled_from(roots))
    roots.insert(data.draw(st.integers(0, len(roots))), tuple(factor * c for c in alpha))
    with pytest.raises(RootSystemError) as parent_err:
        parent_orbits(roots)
    with pytest.raises(RootSystemError) as err:
        build_root_system(roots, [1] * len(roots))
    assert str(err.value) == str(parent_err.value)


@given(st.lists(st.one_of(st.integers(-4, 4), rational, st.booleans()), min_size=1, max_size=5)
       .filter(any))
@settings(max_examples=200, deadline=None)
def test_compiled_fields_match_the_parent_compilation(alpha):
    action = compile_reflection(alpha)
    fields = (action.root, action.norm, action.pivot, action.support, action.signed, action.unit)
    expected = parent_compile(alpha)
    assert fields == expected
    assert [type(v) for v in action.root + (action.norm, action.unit)] == [
        type(v) for v in expected[0] + (expected[1], expected[5])
    ]


# F4 mixes roots whose reflection is a signed permutation (e_i, e_i +- e_j)
# with general ones ((1, +-1, +-1, +-1)/2); without its last root it is not
# closed, and with the negative of that root added it is not reduced.
WALKED_SYSTEMS = {
    "mixed": (list(F4), None),
    "not closed": (list(F4[:-1]), "system is not closed"),
    "not reduced": ([*F4, tuple(-c for c in F4[-1])], "not reduced"),
}


@pytest.mark.parametrize("name", WALKED_SYSTEMS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_column_walk_matches_the_per_vector_walk(name, data):
    roots, defect = WALKED_SYSTEMS[name]
    order = data.draw(st.permutations(range(len(roots))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(roots), max_size=len(roots)))
    roots = [tuple(-c for c in roots[i]) if flip else roots[i] for i, flip in zip(order, flips)]
    try:
        expected = parent_orbits(roots)
    except RootSystemError as exc:
        assert defect and str(exc).startswith(defect)
        with pytest.raises(RootSystemError) as err:
            build_root_system(roots, [1] * len(roots))
        assert str(err.value) == str(exc)
    else:
        assert defect is None
        assert build_root_system(roots, [1] * len(expected)).orbits == expected
