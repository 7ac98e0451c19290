"""Each demo script, and the README's python blocks, run to completion
against the installed API, and the README's command lines parse."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    # the README's python blocks, in order and in one namespace, as a reader
    # pastes them: a public name the docs use must still exist
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_lines_parse():
    # every `sketchgs ...` line of the README's sh blocks, continuations
    # joined, is one the CLI accepts: the docs show no option a command
    # rejects
    from sketchgs.cli import _build_parser

    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("sketchgs ")]
    assert len(commands) >= 4
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_options_table_matches_parser():
    # the README's `| command | options |` table lists, in order, the flags
    # the parser gives each subcommand, `--out` aside: a knob added or
    # dropped without the docs fails here
    import argparse

    from sketchgs.cli import _build_parser

    readme = (ROOT / "README.md").read_text()
    table = readme.split("| command | options |\n| --- | --- |\n")[1]
    documented = {}
    for row in table.split("\n\n")[0].splitlines():
        command, options = re.match(r"\| `([\w-]+)` \| `([^`]*)`", row).groups()
        documented[command] = options.split()
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    built = {command: [flag for action in sp._actions
                       for flag in action.option_strings
                       if flag not in ("-h", "--help", "--out")]
             for command, sp in sub.choices.items()}
    assert documented == built


def test_readme_exit_codes_match_cli():
    # the README's "Exit codes" list gives, in order, the values of the
    # CLI's EXIT_* constants: a code added, dropped or renumbered without
    # the docs fails here
    from sketchgs import cli

    readme = (ROOT / "README.md").read_text()
    block = readme.split("Exit codes:\n\n")[1].split("\n\n")[0]
    documented = [int(code) for code in re.findall(r"^- (\d+):", block, re.M)]
    built = sorted(value for name, value in vars(cli).items()
                   if name.startswith("EXIT_"))
    assert documented == built
