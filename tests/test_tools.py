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


def test_box_kernel_prints_a_row_a_path_and_the_covering_call():
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    out = run_tool("tools/box_kernel.py", "cauchy-cantor", "--paths", "2", "--repeat", "1", env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "| path | rows | sides | box_count_graph ms | points×scales/s |"
    rows = [line.split("|")[1:-1] for line in lines[2:-1]]
    assert [int(row[0]) for row in rows] == [0, 1]
    assert all(int(row[2]) == 12 and float(row[3]) > 0 for row in rows)
    assert lines[-1].startswith("covering_count one-side call, 17 points: ")
