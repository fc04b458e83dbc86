"""Properties of the package as a whole."""

import ast
import sys
from pathlib import Path

import hopfp


def test_imports_only_the_standard_library():
    # the package has no runtime dependencies: every absolute import
    # names a standard-library module
    allowed = sys.stdlib_module_names | {"__future__"}
    modules = sorted(Path(hopfp.__file__).parent.rglob("*.py"))
    assert "evaluator.py" in {path.name for path in modules}
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert outside == []
