"""Source guards: jobs that have one place in the package stay there.

Every operator of the calculus sums c * q over (c, q) pairs, and
poly.combine_terms (over term dicts, which poly.linear_combination wraps for
Polys) is the one place that does it.  This test parses
the package and fails on a new hand-written accumulate statement of the
form acc[k] = acc.get(k, ...) + ... outside the functions listed below.
Likewise every verification suite is a case generator, and the one runner
in verify._suite builds the seeded generator, the case list and the report;
every polynomial command is a body, and the one runner in cli builds the
operator context and parses --poly.  A full table is cleared in one place
per kind: util.grown_row for series rows, verify.get_context for operator
contexts.  The linear form <alpha, x> of a root is built once, when
poly.compile_reflection compiles the root (with its reflection images), and
every division by it reads the compiled form.  A weighted function's
canonical form is reached in one fold, radial.WeightedFunction._folds, so
that fold and poly.divide_exact_by_norm_sq are the only callers of
try_divide_norm_sq.  Last, every module-level function, public or private,
is reached from the package itself, not only from the tests.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dunklcalc"

# Each entry collects coefficients term by term, not Poly values.
ALLOWED = {
    ("poly", "Poly.__mul__"): "products of terms",
    ("poly", "partial_derivative"): "monomial to monomial map",
    ("poly", "classical_laplacian"): "monomial to monomial map",
    ("poly", "_divide_monic"): "remainder of an exact division",
    ("poly", "_times_norm_sq"): "monomial to monomial map",
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
    assert sites - ALLOWED.keys() == set(), "use poly.combine_terms or linear_combination"
    # the list stays tight: every allowed site still accumulates by hand
    assert ALLOWED.keys() - sites == set()



def _called_name(node: ast.AST) -> str:
    """The name a call node calls, or "" for any other node."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _jobs_by_scope(module: str, jobs) -> dict[str, set[str]]:
    """Dotted scope -> the jobs(node) names found in it, over one module."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                for job in jobs(child):
                    found.setdefault(".".join(scope), set()).add(job)
                visit(child, scope)

    visit(ast.parse((SRC / f"{module}.py").read_text()), [])
    return found


def _runner_jobs(node: ast.AST) -> list[str]:
    """What node does that only the suite runner may do."""
    if _called_name(node) in ("Random", "VerificationReport"):
        return [_called_name(node)]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:  # not a field
        targets = [node.target]
    return ["cases list" for t in targets if isinstance(t, ast.Name) and t.id == "cases"]


def test_only_the_suite_runner_builds_rng_cases_and_report():
    found = _jobs_by_scope("verify", _runner_jobs)
    assert found == {"_suite.register.run": {"Random", "VerificationReport", "cases list"}}


def test_only_the_command_runner_builds_context_and_parses_poly():
    found = _jobs_by_scope(
        "cli", lambda node: {_called_name(node)} & {"DunklContext", "parse_poly"}
    )
    assert found == {"_run_command": {"DunklContext", "parse_poly"}}


# The one bound of each kind of module-level table: series rows and
# operator contexts.
CLEARS = {("util", "grown_row"), ("verify", "get_context")}


def _clears(node: ast.AST) -> list[int]:
    """The line of node when it calls .clear() on a named table."""
    func = node.func if isinstance(node, ast.Call) else None
    named = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
    return [node.lineno] if named and func.attr == "clear" else []


def test_only_the_one_bound_per_kind_clears_a_table():
    sites = {
        (path.stem, scope): sorted(lines)
        for path in sorted(SRC.glob("*.py"))
        for scope, lines in _jobs_by_scope(path.stem, _clears).items()
    }
    stray = {site: lines for site, lines in sites.items() if site not in CLEARS}
    assert stray == {}, "grow and bound a table of rows with util.grown_row"
    assert set(sites) == CLEARS


def _call_sites(name: str) -> set[tuple[str, str]]:
    """(module, dotted scope) of every call of name in the package."""
    return {
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in _jobs_by_scope(path.stem, lambda node: {_called_name(node)} & {name})
    }


# The scopes that build a root's linear form: its compiled divisor and the
# linear images of its reflection.
LINEAR_FORMS = {("poly", "compile_reflection"), ("poly", "reflection_variable_images")}


def test_only_root_compilation_builds_a_linear_form():
    sites = _call_sites("linear_form")
    assert sites - LINEAR_FORMS == set(), "read the divisor off the root's ReflectionAction"
    assert sites == LINEAR_FORMS


# The scopes that divide by |x|^2 and may find that it does not divide.
NORM_SQ_DIVISIONS = {("radial", "WeightedFunction._folds"), ("poly", "divide_exact_by_norm_sq")}


def test_only_the_canonical_fold_tries_a_norm_square_division():
    sites = _call_sites("try_divide_norm_sq")
    assert sites - NORM_SQ_DIVISIONS == set(), "strip |x|^2 in WeightedFunction._folds"
    assert sites == NORM_SQ_DIVISIONS


TRACER = SRC.parent.parent / "perfbench" / "tracer.py"

# Decorators that register a function by name, so nothing else needs to name it.
REGISTRARS = {"_suite", "_command"}


def _unreached_functions(src: Path) -> set[tuple[str, str]]:
    """Module-level functions, public or private, that no other code of the package names.

    A function counts as reached when its name is used (read as a name or an
    attribute) in any top-level statement of a package module other than its
    own definition, __init__.py aside, or when perfbench/tracer.py names it.
    Methods are out of reach of this check: matching by name is too coarse
    for them, since one method name serves many classes and their callers.
    """
    tracer_words = set(re.findall(r"\w+", TRACER.read_text()))
    used: dict[str, set[tuple[str, int]]] = {}
    defined = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for i, statement in enumerate(ast.parse(path.read_text()).body):
            site = (path.stem, i)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    used.setdefault(node.id, set()).add(site)
                elif isinstance(node, ast.Attribute):
                    used.setdefault(node.attr, set()).add(site)
            if (
                isinstance(statement, ast.FunctionDef)
                and not {_called_name(d) for d in statement.decorator_list} & REGISTRARS
            ):
                defined.append((site, statement.name))
    return {
        (site[0], name)
        for site, name in defined
        if not used.get(name, set()) - {site} and name not in tracer_words
    }


def test_every_module_level_function_is_reached_from_the_package():
    assert _unreached_functions(SRC) == set(), (
        "delete the function, or call it from the package"
    )


def test_the_reach_guard_flags_a_function_only_the_tests_could_call(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "radial.py", "a") as fh:
        fh.write("\n\ndef unreached(x):\n    return unreached(x - 1) if x else 0\n")
    assert _unreached_functions(tmp_path) == {("radial", "unreached")}


def test_the_reach_guard_flags_a_private_helper_nothing_calls(tmp_path):
    # a leftover helper of a deleted code path, say a regex builder, that
    # only its own module defines
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "poly.py", "a") as fh:
        fh.write("\n\ndef _helper(pattern):\n    return re.compile(pattern)\n")
    assert _unreached_functions(tmp_path) == {("poly", "_helper")}
