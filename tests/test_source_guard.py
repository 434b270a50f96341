"""Source guard: linear combinations of polynomials go through one helper.

Every operator of the calculus sums c * q over (c, q) pairs, and
poly.linear_combination is the one place that does it.  This test parses
the package and fails on a new hand-written accumulate statement of the
form acc[k] = acc.get(k, ...) + ... outside the functions listed below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dunklcalc"

# Each entry collects coefficients term by term, not Poly values.
ALLOWED = {
    ("poly", "Poly.__mul__"): "products of terms",
    ("poly", "partial_derivative"): "monomial to monomial map",
    ("poly", "classical_laplacian"): "monomial to monomial map",
    ("poly", "divide_exact_by_linear"): "quotient of an exact division",
    ("poly", "parse_poly"): "term collection while parsing",
    ("radial", "inv_r_ddr"): "profile coefficients",
    ("radial", "_merge_profile_sum"): "profile coefficients",
}


def _is_accumulate(node: ast.AST) -> bool:
    """acc[k] = acc.get(k, ...) +/- ..., the hand-written accumulate step."""
    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
        return False
    target, value = node.targets[0], node.value
    if not (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)):
        return False
    if not (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub))):
        return False
    call = value.left
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "get"
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == target.value.id
        and bool(call.args)
        and ast.dump(call.args[0]) == ast.dump(target.slice)
    )


def _accumulate_sites() -> set[tuple[str, str]]:
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
            else:
                if _is_accumulate(child):
                    sites.add((module, ".".join(scope)))
                visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    return sites


def test_no_new_hand_written_accumulate_loops():
    sites = _accumulate_sites()
    assert sites - ALLOWED.keys() == set(), "use poly.linear_combination"
    # the list stays tight: every allowed site still accumulates by hand
    assert ALLOWED.keys() - sites == set()

