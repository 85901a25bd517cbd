"""The README's Quick starts run as written, and the API one prints what it says; its command
reference, quoted constants and module list are the code's, and it names no private helper."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import oamcv.cli as cli
from oamcv.cli import EXIT_OK, main
from test_modes import STRIPE_RANGES

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


SRC = README.parent / "src" / "oamcv"
# the package's modules, __init__ aside
MODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("_"))


def readme_section(heading: str) -> str:
    """The text of the README's '## heading' section, up to the next '## ' heading."""
    return README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def tables(text: str) -> list:
    """Each markdown table in text, as a list of {header cell: cell} per body row."""
    found = []
    for block in re.findall(r"(?:^\|.*\n)+", text, flags=re.MULTILINE):
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in block.splitlines()]
        found.append([dict(zip(rows[0], row)) for row in rows[2:]])
    return found


def table(text: str, first_header: str) -> list:
    """The one table in text whose first column is headed first_header."""
    (rows,) = [rows for rows in tables(text) if rows and next(iter(rows[0])) == first_header]
    return rows


def documented_flags() -> dict:
    """{command: {flag: its row}} from each '### `oamcv ...`' part of the Commands section: a
    row's commands are those its Commands column names, else every command of the heading."""
    flags = {}
    for part in readme_section("Commands").split("\n### ")[1:]:
        heading, body = part.split("\n", 1)
        for row in table(body, "Flag"):
            commands = row["Commands"].split() if "Commands" in row else \
                re.findall(r"`oamcv (\w+)`", heading)
            for command in commands:
                flags.setdefault(command, {})[row["Flag"].strip("`").split()[0]] = row
    return flags


def registered_flags() -> dict:
    """{command: {option string: dest}} of each subcommand that cli.build_parser() registers."""
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return {command: {option: action.dest for action in parser._actions
                      for option in action.option_strings if option not in ("-h", "--help")}
            for command, parser in subparsers.choices.items()}


def code_spans(text: str) -> list:
    """The fenced code blocks and the inline code spans of markdown text."""
    fence = re.compile(r"^```.*?^```", flags=re.MULTILINE | re.DOTALL)
    return fence.findall(text) + re.findall(r"`[^`\n]+`", fence.sub("", text))


def private_names(text: str) -> list:
    """The _-prefixed identifiers in the code of markdown text (dunders and file names aside)."""
    return [name for span in code_spans(text)
            for name in re.findall(r"(?<![\w{}])_[A-Za-z]\w*", span)]


def public_names(module: str) -> list:
    """The names a module of the package defines at its top level without a leading _."""
    names = []
    for node in ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return sorted(name for name in names if not name.startswith("_"))


def test_names_no_private_helper():
    assert private_names(README.read_text(encoding="utf-8")) == []


def test_private_name_check_reads_code_spans_and_blocks():
    # guard: the checker finds a helper inline, dotted and in a block, and nothing else
    text = "`_frozen`, `modes._write_file(p)`, `mode_l{l}_beam.pgm`, `__all__`, `n_per_setting`\n" \
           "```python\nfrom oamcv.cli import _tomo_text\n```\n"
    assert sorted(private_names(text)) == ["_frozen", "_tomo_text", "_write_file"]


def test_each_commands_flags_are_the_parsers():
    documented, registered = documented_flags(), registered_flags()
    assert {command: sorted(flags) for command, flags in documented.items()} == \
        {command: sorted(flags) for command, flags in registered.items()}


def test_each_flags_config_key_is_its_dest():
    # a sweep, thresholds or tomo flag stores its value under the config key its row names
    registered = registered_flags()
    keys = {(command, flag): row["Config key"].strip("`")
            for command, rows in documented_flags().items()
            for flag, row in rows.items() if row.get("Config key")}
    # guard: the flags with a key of sweep, thresholds and tomo
    assert len(keys) == 8 + 5 + 10
    assert keys == {(command, flag): registered[command][flag] for command, flag in keys}


def test_presets_are_cli_presets():
    rows = table(readme_section("Commands"), "Preset")
    documented = {row["Preset"].strip("`"): {"deltas": tuple(map(float, row["`deltas`"].split(",")))}
                  for row in rows}
    assert documented == cli.PRESETS


def test_exit_codes_are_cli_exit_codes():
    rows = table(readme_section("Commands"), "Code")
    documented = {row["Constant"].strip("`"): int(row["Code"]) for row in rows}
    assert documented == {name: value for name, value in vars(cli).items()
                          if name.startswith("EXIT_")}


def test_quoted_constants_are_the_codes():
    text = README.read_text(encoding="utf-8")
    quoted = re.findall(r"`([A-Z][A-Z_]*)` = (\d[\d.,e+-]*\d|\d)", text)
    # guard: the grid bound, the threshold bracket and the charge guard
    assert sorted(name for name, _ in quoted) == ["ETA_LO", "MAX_ABS_CHARGE", "MAX_ETA_POINTS"]
    modules = [importlib.import_module(f"oamcv.{module}") for module in MODULES]
    for name, value in quoted:
        (code,) = {getattr(module, name) for module in modules if hasattr(module, name)}
        assert code == float(value.replace(",", "")), name
    assert f"`{cli.SWEEP_HEADER}`" in text


def test_stripe_ranges_are_the_tested_ones():
    (row,) = table(readme_section("Commands"), "Astigmatism")
    assert {float(a): int(top) for a, top in row.items() if a != "Astigmatism"} == STRIPE_RANGES


def test_module_list_names_each_public_name():
    listed = {}
    for bullet in re.findall(r"^- (.*?)(?=^- |\Z)", readme_section("Modules"),
                             flags=re.MULTILINE | re.DOTALL):
        module, *names = re.findall(r"`([^`]+)`", bullet)
        listed[module] = sorted(names)
    assert listed == {f"oamcv.{module}": public_names(module) for module in MODULES}
