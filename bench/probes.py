"""Fresh-interpreter measurements: set-up time, command time, import attribution."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

PROBE_TIMEOUT_S = 60
LAYERS = ("gaussian", "channels", "criteria", "tomography", "modes", "cli")


def program_env(src: Path) -> dict:
    """The current environment with the program's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def timed_run(args: list, env: dict, cwd: Path) -> tuple:
    """(wall seconds, completed process) of one interpreter run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start, proc


def setup_seconds(env: dict, cwd: Path) -> float:
    """Fresh interpreter start to `import oamcv.cli` done."""
    seconds, proc = timed_run(["-c", "import oamcv.cli"], env, cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"import oamcv.cli failed: {proc.stderr.strip()}")
    return seconds


def import_seconds(env: dict, cwd: Path) -> dict:
    """Import time of each layer and of numpy, from one `-X importtime` run.

    A module's self time is charged to the nearest enclosing oamcv layer,
    so a third-party package lands on the first layer that imports it
    (scipy.signal on modes).  numpy's whole subtree is reported on its own;
    the package's __init__, its errors module and what they pull in are
    "other".
    """
    _, proc = timed_run(["-X", "importtime", "-c", "import oamcv.cli"], env, cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"import oamcv.cli failed: {proc.stderr.strip()}")
    return attribute_imports(proc.stderr)


def attribute_imports(report: str) -> dict:
    """Seconds per owner from the text `python -X importtime` prints."""
    roots, pending = [], {}
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cumulative_us, label = line.split("|")
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        node = (label.strip(), int(head.split(":")[1]), int(cumulative_us),
                pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
        if depth == 0:
            roots.append(node)
    totals = Counter()

    def charge(node, owner):
        name, self_us, cumulative_us, children = node
        if name == "numpy":
            totals["numpy"] += cumulative_us
            return
        if name == "oamcv" or name.startswith("oamcv."):
            layer = name[len("oamcv."):]
            owner = layer if layer in LAYERS else "other"
        totals[owner] += self_us
        for child in children:
            charge(child, owner)

    for root in roots:
        if root[0] == "oamcv" or root[0].startswith("oamcv."):
            charge(root, None)
    return {owner: us / 1e6 for owner, us in totals.items()}
