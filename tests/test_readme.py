"""The README's Library block runs and shows what it says, and the package
root exports exactly the names that the README documents."""

import ast
import re
import types
from pathlib import Path

import harmonia

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_block_runs_and_gives_its_documented_values():
    block = _library_section().split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert f"{values['mutual_information(joint, HEAD, dep_range(1, 2))']:.6f}".startswith("0.5143")
    assert values["res.best_positions"] == (3,)
    assert values["all(check.holds for _, check in theorem_battery(model))"] is True


def test_root_exports_exactly_the_documented_names():
    bound = {
        name for name, value in vars(harmonia).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(harmonia.__all__) == sorted(bound)
    assert len(harmonia.__all__) <= 18
    section = _library_section()
    for name in harmonia.__all__:
        assert getattr(harmonia, name) is not None
        assert re.search(rf"\b{name}\b", section), f"{name} is not in the README's Library section"
