"""The package runs on numpy and the standard library alone.

The test extras install scipy and hypothesis, so a run of the suite or
of the console entry point would not notice a module of `src/churnopt`
importing one of them. This reads every import statement instead.
"""

import ast
import sys
from pathlib import Path

import churnopt

ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def test_every_import_is_relative_numpy_or_stdlib():
    outside = []
    for path in sorted(Path(churnopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert outside == []
