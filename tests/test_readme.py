"""README's library quick tour runs as written and shows the values its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    stated, shown = [], []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            # the comment's first word is the value, e.g. "# 91, structurally computed"
            comment = lines[node.lineno - 1].split("#", 1)[1]
            stated.append(ast.literal_eval(re.match(r"\s*(\w+)", comment).group(1)))
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert stated == [91, 91, 108, True]
    assert [repr(v) for v in shown] == [repr(v) for v in stated]
