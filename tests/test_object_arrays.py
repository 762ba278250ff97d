"""No coefficient table is held as Python ints: under src/, an array of
dtype object is made only by the one block converter, ``_words.exact``, and
by the input path of the CoefficientTable constructor.  Whether an exact
fold runs on int64 or on Python ints is decided in ``arith`` alone."""

import ast
from pathlib import Path

from gaussvariants import arith

PACKAGE = Path(arith.__file__).resolve().parent

# (file, function) allowed to make an object array
ALLOWED = {("_words.py", "exact"), ("arith.py", "CoefficientTable.__init__")}


def names_object(node):
    """Whether the expression names the object dtype anywhere: ``object``,
    "O" or "object", as in ``dtype=object if wide else np.int64``."""
    return any(
        isinstance(n, ast.Name) and n.id == "object"
        or isinstance(n, ast.Constant) and n.value in ("O", "object")
        for n in ast.walk(node)
    )


def object_arrays(path):
    """(function, line, code) of each call in the file that asks for the
    object dtype: ``astype(object)``, ``dtype=object`` or ``object`` as a
    positional argument (``np.empty(n, object)``, ``np.dtype(object)``)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and not (
                isinstance(child.func, ast.Name) and child.func.id in ("isinstance", "issubclass")
            ):
                keywords = [k.value for k in child.keywords if k.arg == "dtype"]
                if any(map(names_object, keywords + child.args)):
                    found.append((scope, child.lineno, ast.unparse(child)))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_only_the_block_converter_makes_object_arrays():
    found = {
        path.name: [use for use in object_arrays(path) if (path.name, use[0]) not in ALLOWED]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {}
    # the scan does see the conversions it allows
    seen = {(path.name, use[0]) for path in PACKAGE.glob("*.py") for use in object_arrays(path)}
    assert seen == ALLOWED


def test_the_scan_sees_each_form(tmp_path):
    path = tmp_path / "forms.py"
    path.write_text(
        "def f(a, n, wide):\n"
        "    a.astype(object)\n"
        "    np.empty(n, dtype=object)\n"
        "    np.zeros(n, dtype=object if wide else np.int64)\n"
        "    np.cumsum(a, dtype='O')\n"
        "    np.dtype(object)\n"
        "    isinstance(a, object)\n"
        "    a.astype(np.int64)\n"
    )
    assert [line for _, line, _ in object_arrays(path)] == [2, 3, 4, 5, 6]


def test_only_arith_chooses_int64_or_python_ints():
    readers, lattice_imports = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
            if field and getattr(node, field) == "_INT64_SAFE":  # read, or imported by name
                readers.add(path.name)
            if path.name == "lattice.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                lattice_imports += [name for name in names if name.split(".")[-1] == "_words"]
    assert readers == {"arith.py"}
    assert lattice_imports == []
