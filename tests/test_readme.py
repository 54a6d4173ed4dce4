"""The README's examples run as written: every ``$ knotpoly ...``
transcript prints the output shown under it, byte for byte, and the
``python`` blocks run, in order, in one namespace, each printing the
``# `` lines it ends with."""

import re
import shlex
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, flags=re.M | re.S)
# a transcript is a "$ knotpoly" line and its output, up to a blank line
TRANSCRIPTS = [
    chunk.partition("\n")
    for lang, body in BLOCKS
    if lang == "sh"
    for chunk in body.rstrip("\n").split("\n\n")
    if chunk.startswith("$ knotpoly ")
]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_examples_run_as_shown(run, capsysbinary):
    # counted, so that a change to the fences cannot leave nothing to check
    assert (len(TRANSCRIPTS), len(PYTHON)) == (6, 2)
    for command, _, shown in TRANSCRIPTS:
        argv = shlex.split(command)[2:]
        assert run(argv) == (0, f"{shown}\n".encode(), b""), command
    namespace = {}
    for code in PYTHON:
        exec(code, namespace)
        # the block's last lines, each "# " and a line the block prints
        shown = re.search(r"(?:^# .*\n)*\Z", code, flags=re.M).group()
        assert shown, code
        printed = capsysbinary.readouterr().out.decode()
        assert printed == re.sub(r"^# ", "", shown, flags=re.M), code
