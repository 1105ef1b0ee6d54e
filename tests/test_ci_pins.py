"""The console-script checks of .github/workflows/tests.yml, run in process.

Each ``sha1 args`` line of the workflow's PINS heredocs is run through
``ellfam.cli.main`` and the sha1 of its stdout compared with the pin; the
radius-2 scans' stderr summaries (the STDERR heredoc), the ``grep`` checks
and the exact-stderr checks are read from the same file.  The six
``--budget 100000,200000 scan ... --radius 3`` pins take about 9 s each for
the Z/8 grids and run in CI only.
"""

import hashlib
import pathlib
import re

import pytest

from ellfam.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def heredoc(tag: str) -> list[str]:
    """The stripped lines of every heredoc ``<<'tag'`` in the workflow."""
    blocks = re.findall(rf"<<'{tag}'\n(.*?)\n\s*{tag}\n", WORKFLOW, re.S)
    return [line.strip() for block in blocks for line in block.splitlines()]


PINS = list(dict.fromkeys(tuple(line.split(" ", 1)) for line in heredoc("PINS")))
CI_ONLY = [args for _sha, args in PINS if args.startswith("--budget 100000,200000 scan") and "--radius 3" in args]
RUN_PINS = [(sha, args) for sha, args in PINS if args not in CI_ONLY]
# the scan command of the STDERR loop, with each name put in
SCAN = re.search(r'err=\$\(ellfam (.*"\$name".*?) 2>&1', WORKFLOW)[1]
SCAN_STDERR = {
    SCAN.replace('"$name"', name): expected for name, expected in (line.split(" ", 1) for line in heredoc("STDERR"))
}
GREPS = re.findall(r"^\s*ellfam ([^$\n]+?) \| grep '(.+)'$", WORKFLOW, re.M)
EXACT_STDERR = re.findall(
    r'err=\$\(ellfam ([^$\n]+?) 2>&1 > /dev/null < /dev/null\) \|\| rc=\$\?\n'
    r'\s*if \[ "\$rc" != (\d+) \] \|\| \[ "\$err" != "(.*)" \]',
    WORKFLOW,
)


@pytest.fixture
def cli(capsys, monkeypatch):
    """Run ``ellfam args`` in process: (exit code, stdout, stderr).  As in
    CI, the environment holds a malformed budget, which nothing reads."""
    monkeypatch.setenv("ELLFAM_BUDGET", "not-a-budget")

    def run(args: str):
        try:
            code = main(args.split())
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    return run


def test_workflow_is_read_whole():
    # a reformatted workflow must not silently drop checks
    assert len(PINS) >= 101 and len(CI_ONLY) == 6 and len(RUN_PINS) >= 95
    assert len(SCAN_STDERR) == 3 and set(SCAN_STDERR) <= {args for _sha, args in RUN_PINS}
    assert len(GREPS) == 2 and len(EXACT_STDERR) == 2


@pytest.mark.parametrize("sha, args", RUN_PINS, ids=[args for _sha, args in RUN_PINS])
def test_pin(cli, sha, args):
    code, out, err = cli(args)
    assert hashlib.sha1(out.encode()).hexdigest() == sha
    if args in SCAN_STDERR:
        assert (code, err.rstrip("\n")) == (0, SCAN_STDERR[args])


@pytest.mark.parametrize("args, pattern", GREPS)
def test_grep(cli, args, pattern):
    assert pattern in cli(args)[1]


@pytest.mark.parametrize("args, status, message", EXACT_STDERR)
def test_exact_stderr(cli, args, status, message):
    code, _out, err = cli(args)
    assert (code, err) == (int(status), message + "\n")
