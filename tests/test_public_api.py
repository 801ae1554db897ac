"""The package's public surface: ``__all__`` and the README's examples."""

import ast
import re
from pathlib import Path

import bayes_cpd

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_a_list_of_names_that_resolve():
    assert isinstance(bayes_cpd.__all__, list)
    assert len(set(bayes_cpd.__all__)) == len(bayes_cpd.__all__)
    for name in bayes_cpd.__all__:
        assert hasattr(bayes_cpd, name), name


def test_all_covers_what_the_acceptance_suite_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "bayes_cpd"
                for alias in node.names}
    assert imported
    assert imported <= set(bayes_cpd.__all__)


def test_readme_lists_every_exported_name():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in bayes_cpd.__all__ if f"`{name}`" not in text] == []


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # later blocks reuse names the earlier ones bind
        exec(compile(block, "README.md", "exec"), namespace)
