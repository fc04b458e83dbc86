"""Properties of the package as a whole."""

import ast
import shlex
import sys
from pathlib import Path

import hopfp
from hopfp import format_tm
from hopfp.cli import run_cli

from _machines import M_FIRST1


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


def test_readme_library_example_runs_as_printed(tmp_path, monkeypatch):
    # each expression statement of the README's Library example gives the
    # result its comment states
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "first1.tm").write_text(format_tm(M_FIRST1))
    monkeypatch.chdir(tmp_path)
    lines = code.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.end_lineno - 1].rsplit("# ", 1)[1].strip()
            shown.append((repr(eval(source, namespace)), comment))
        else:
            exec(source, namespace)
    assert shown == [("True", "True"), ("(True, True)", "(True, True)")]


def test_readme_cli_examples_print_as_shown(tmp_path, monkeypatch, capsys):
    # every command of the README's sh blocks that a "# " line follows
    # prints that line's text
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [block.split("```")[0] for block in readme.split("```sh\n")[1:]]
    lines = [line for block in blocks for line in block.splitlines()]
    (tmp_path / "first1.tm").write_text(format_tm(M_FIRST1))
    monkeypatch.chdir(tmp_path)
    shown = []
    for command, comment in zip(lines, lines[1:]):
        if comment.startswith("# "):
            program, *argv = shlex.split(command)
            assert program == "hopfp"
            run_cli(argv)
            shown.append((capsys.readouterr().out, comment[2:] + "\n"))
    assert shown == [("8\n", "8\n"), ("agree: accept\n", "agree: accept\n")]
