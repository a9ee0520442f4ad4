"""The psi-form is private to levelset: quadrature reaches it through its
one entry point, the norm, and no other module of src/duval_kind names
it.  Inside levelset, the psi-form keeps to e0 = e^psi0 (no softplus),
the kernel to (15, 2) rule products (no matrix-vector product with _WK)
and to flat integrands (no isinstance).  The band kernel is the oracle
in tests/oracles.py, and a band there is one panel whose levels reach
levelset's kernel through `_psi_integral` alone.  levelset returns
finished results, and quadrature alone checks them against the
tolerance.  The JSON that cli and classify print has one writer,
`classify.indented_json`."""

import ast
import os

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
PACKAGE_DIR = os.path.join(TESTS_DIR, os.pardir, "src", "duval_kind")
ENTRY_POINTS = {"level_norm"}


def parsed_modules() -> dict[str, ast.Module]:
    modules = {}
    for entry in sorted(os.listdir(PACKAGE_DIR)):
        if entry.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, entry), encoding="utf-8") as fh:
                modules[entry[:-3]] = ast.parse(fh.read(), filename=entry)
    return modules


def identifiers(tree: ast.AST) -> set[str]:
    """Every name the code of a module uses: names, attributes, and the
    parts of imported module names (an alias shows up as a name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
    return found


def test_quadrature_calls_only_the_two_entry_points():
    tree = parsed_modules()["quadrature"]
    attributes = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "levelset"
    }
    assert attributes <= ENTRY_POINTS
    imported_from = {
        node.module.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert "levelset" not in imported_from  # only `from . import levelset`


def test_no_other_module_names_levelset():
    for name, tree in parsed_modules().items():
        if name not in ("quadrature", "levelset"):
            assert "levelset" not in identifiers(tree), name


def test_levelset_has_no_public_tail_bound():
    from duval_kind import levelset

    assert not hasattr(levelset, "tail_bound")


def test_levelset_kernel_has_no_softplus_and_no_matrix_vector_rule():
    # the psi-form runs on e0 = e^psi0, and the kernel's only rule products
    # are (15, 2) matrix products, which round a row alike for any row count
    tree = parsed_modules()["levelset"]
    assert "_softplus" not in identifiers(tree)
    assert not any(
        isinstance(node, ast.FunctionDef) and node.name == "_softplus" for node in ast.walk(tree)
    )
    matvec = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.MatMult)
        and isinstance(node.right, ast.Name)
        and node.right.id == "_WK"
    ]
    assert not matvec


def test_levelset_integrands_are_flat():
    assert "isinstance" not in identifiers(parsed_modules()["levelset"])


def test_annulus_bands_reaches_the_kernel_only_through_psi_integral():
    # the names each module-level function of the oracles uses
    with open(os.path.join(TESTS_DIR, "oracles.py"), encoding="utf-8") as fh:
        oracles = ast.parse(fh.read(), filename="oracles.py")
    calls = {
        node.name: identifiers(node) for node in oracles.body if isinstance(node, ast.FunctionDef)
    }
    assert "_psi_integral" in calls["annulus_bands"]
    # every function annulus_bands reaches without passing _psi_integral
    reached, todo = set(), ["annulus_bands"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo.extend(
            callee
            for callee in calls[name] & calls.keys()
            if callee not in reached and callee != "_psi_integral"
        )
    # the v-panels and their (15, 2) rule product belong to _psi_integral
    for name in reached:
        assert not {"_V_POINTS", "_WKG"} & calls[name], name


def test_levelset_leaves_the_tolerance_to_quadrature():
    # levelset returns finished results; quadrature alone checks them
    # against the tolerance and raises QuadratureBudgetError
    tree = parsed_modules()["levelset"]
    names = identifiers(tree) | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert "rel_tol" not in names
    assert "QuadratureBudgetError" not in names


def test_no_json_dumps_with_indent_in_cli_or_classify():
    # stdout JSON goes through classify.indented_json, which equals
    # json.dumps(doc, indent=2) without CPython's pure-Python indent encoder
    modules = parsed_modules()
    for name in ("cli", "classify"):
        indented = [
            node.lineno
            for node in ast.walk(modules[name])
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
            and any(keyword.arg == "indent" for keyword in node.keywords)
        ]
        assert not indented, (name, indented)
