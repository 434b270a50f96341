import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dunklcalc.roots
from dunklcalc.operators import DunklContext
from dunklcalc.poly import (
    Poly,
    PolyError,
    compile_reflection,
    compose_reflection,
    reflection_variable_images,
)
from dunklcalc.roots import (
    MAX_DIM,
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


def test_non_reduced_rejected():
    with pytest.raises(RootSystemError, match="not reduced"):
        build_root_system([(1, 0), (2, 0)], [1, 1])


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
    images = reflection_variable_images(alpha, p.dim)
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
