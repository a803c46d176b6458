"""Smoke test of the walkthroughs: each script in ``demos/`` runs and
prints, and the README's Python blocks run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_are_found():
    # an empty glob would leave the smoke test below with nothing to run
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_tour_runs():
    # the tour calls public names; a moved or renamed one fails here
    # instead of leaving the README broken
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks
    for b in blocks:
        # padded so that a traceback names the README's own line
        code = "\n" * text.count("\n", 0, b.start(1)) + b.group(1)
        exec(compile(code, str(README), "exec"), {})


def test_readme_shell_tour_runs(tmp_path, monkeypatch):
    # each levycrm line of the "Command line" block exits 0 and writes its
    # --out, so the README shows no flag that the CLI refuses
    from levycrm.cli import main

    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [
        line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("levycrm ")
    ]
    assert lines
    monkeypatch.chdir(tmp_path)
    (tmp_path / "counts.jsonl").write_text(
        '{"location": [0.25], "count": 3}\n{"location": [0.75], "count": 0}\n'
    )
    for argv in lines:
        assert main(argv) == 0, argv
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).exists(), argv
