"""Source guards: jobs that have one place in the package stay there.

Every operator of the calculus sums c * q over (c, q) pairs, and
poly.linear_combination is the one place that does it.  This test parses
the package and fails on a new hand-written accumulate statement of the
form acc[k] = acc.get(k, ...) + ... outside the functions listed below.
Likewise every verification suite is a case generator, and the one runner
in verify._suite builds the seeded generator, the case list and the report.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dunklcalc"

# Each entry collects coefficients term by term, not Poly values.
ALLOWED = {
    ("poly", "Poly.__mul__"): "products of terms",
    ("poly", "partial_derivative"): "monomial to monomial map",
    ("poly", "classical_laplacian"): "monomial to monomial map",
    ("poly", "_divide_monic"): "remainder of an exact division",
    ("poly", "parse_poly"): "term collection while parsing",
    ("radial", "_profile"): "profile coefficients",
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



def _runner_jobs(node: ast.AST) -> list[str]:
    """What node does that only the suite runner may do."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("Random", "VerificationReport"):
            return [name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:  # not a field
        targets = [node.target]
    return ["cases list" for t in targets if isinstance(t, ast.Name) and t.id == "cases"]


def test_only_the_suite_runner_builds_rng_cases_and_report():
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                for job in _runner_jobs(child):
                    found.setdefault(".".join(scope), set()).add(job)
                visit(child, scope)

    visit(ast.parse((SRC / "verify.py").read_text()), [])
    assert found == {"_suite.register.run": {"Random", "VerificationReport", "cases list"}}
