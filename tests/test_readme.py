"""The README's Quick start (API) runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks() -> list:
    """The python code blocks of the README's Quick start (API) section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (API)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def expected_lines(block: str) -> list:
    """The '# ...' comment line under each print call, up to its ' -> '."""
    lines = block.splitlines()
    return [line.strip()[2:].split(" -> ", 1)[0]
            for before, line in zip(lines, lines[1:])
            if before.startswith("print(") and line.strip().startswith("# ")]


def test_quick_start_api_prints_its_comments(capsys):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    expected = [line for block in blocks for line in expected_lines(block)]
    # guard: the parser finds both printed results (classify, the death eta)
    assert len(expected) == 2
    assert printed == expected
