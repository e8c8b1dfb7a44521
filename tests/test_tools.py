"""The scripts under ``tools/`` run, each in a process of its own."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_tool(*argv, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)


def test_code_lines_total_is_the_sum_of_its_modules():
    out = run_tool("tools/code_lines.py")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert modules and all(name.endswith(".py") for _, name in modules)
    assert int(total) == sum(int(count) for count, _ in modules)


def test_seed_margins_prints_a_row_and_the_least_margins():
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    out = run_tool("tools/seed_margins.py", "cauchy-cantor", "--seeds", "1", "1", env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("| builtin | seed | box | box verdict |")
    assert sum(line.startswith("| cauchy-cantor | 1 |") for line in lines) == 1
    least = lines.index("| least margin | box | sojourn | energy lower | energy coherent |")
    assert lines[least + 2].startswith("| cauchy-cantor | ")
