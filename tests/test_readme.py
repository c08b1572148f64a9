"""README's Python example runs, and every value its comments give is right."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_example() -> list[str]:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return block.splitlines()


def test_readme_python_example_gives_its_commented_values():
    # each expression line's comment opens with the repr of its value, up to
    # the first ": "
    namespace = {}
    checked = 0
    for line in _python_example():
        code, _, comment = line.partition("#")
        try:
            expression = ast.parse(code, mode="eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(compile(expression, "README.md", "eval"), namespace)
        assert repr(value) == comment.strip().split(": ")[0], line
        checked += 1
    assert checked == 6
