"""The README's Quick starts run as written, and the API one prints what it says."""

import re
from pathlib import Path

from oamcv.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks(kind: str, language: str) -> list:
    """The code blocks in language of the README's Quick start (kind) section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## Quick start ({kind})\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.DOTALL)


def expected_lines(block: str) -> list:
    """The '# ...' comment line under each print call, up to its ' -> '."""
    lines = block.splitlines()
    return [line.strip()[2:].split(" -> ", 1)[0]
            for before, line in zip(lines, lines[1:])
            if before.startswith("print(") and line.strip().startswith("# ")]


def test_quick_start_api_prints_its_comments(capsys):
    blocks = quick_start_blocks("API", "python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    expected = [line for block in blocks for line in expected_lines(block)]
    # guard: the parser finds both printed results (classify, the death eta)
    assert len(expected) == 2
    assert printed == expected


def test_quick_start_cli_runs_as_written(tmp_path, monkeypatch, capsys):
    # each oamcv line's arguments, without its '# ...' comment
    commands = [line.split("#", 1)[0].split()[1:]
                for block in quick_start_blocks("CLI", "sh")
                for line in block.splitlines() if line.startswith("oamcv ")]
    # guard: the parser finds all five commands (two sweeps, thresholds, tomo, modes)
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        out = Path(argv[argv.index("--out") + 1])
        assert (out / "stripes.json" if argv[0] == "modes" else out).is_file(), argv
