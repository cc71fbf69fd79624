import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "steklov_cusp"


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
