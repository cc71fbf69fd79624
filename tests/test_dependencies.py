import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "steklov_cusp"


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one declared dependency; scipy and friends may be
    # installed where the tests run, so an import of them would pass
    # everything else here and break a numpy-only install
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


# private names one package module may import from another: the descent is
# shared by the eigenvalue and FP-constant solvers and is not part of the
# public API
PRIVATE_IMPORTS_ALLOWED = {("analysis", "eigensolver", "_descent")}


def test_no_private_names_imported_across_modules():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found - PRIVATE_IMPORTS_ALLOWED == set()


def test_every_imported_name_is_used():
    # a deletion must take its now-dead imports with it, in the package and
    # in its tests; __init__ imports only to re-export, and the __future__
    # import binds no name
    files = [path for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
             if path.name != "__init__.py"]
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def test_all_lists_exactly_the_imported_names():
    # a name deleted from a module must leave both the import and __all__
    import steklov_cusp
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(steklov_cusp.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in steklov_cusp.__all__:
        assert getattr(steklov_cusp, name) is not None, name
