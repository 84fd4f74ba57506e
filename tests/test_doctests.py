import ast
import doctest
import re
from pathlib import Path

import pytest

import cyclo.regularity
import cyclo.ntheory
import cyclo.polys
import cyclo.ring


@pytest.mark.parametrize(
    "module",
    [cyclo.ntheory, cyclo.polys, cyclo.ring, cyclo.regularity],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


README = Path(__file__).parent.parent / "README.md"


def _readme_library():
    """(line, value) for each line of the README's python block: the line, and
    for an expression its comment up to the first double space, which is the
    repr of its value (None for a statement)."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    lines = []
    for line in filter(None, block.splitlines()):
        comment = line.partition("#")[2].strip().split("  ")[0]
        lines.append((line, comment if isinstance(ast.parse(line).body[0], ast.Expr) else None))
    return lines


README_LIBRARY = _readme_library()


def run_readme_library():
    """Run README_LIBRARY in one namespace, line by line; return the
    (line, repr) of each expression whose repr is not its comment."""
    namespace, wrong = {}, []
    for line, value in README_LIBRARY:
        if value is None:
            exec(line, namespace)
        elif (got := repr(eval(line, namespace))) != value:
            wrong.append((line, got))
    return wrong


def test_readme_library_block_prints_its_comments():
    assert sum(value is not None for _, value in README_LIBRARY) == 5
    assert run_readme_library() == []
