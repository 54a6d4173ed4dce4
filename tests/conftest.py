"""The one in-process way to run the command line, and a clean format default."""

from collections import namedtuple

import pytest

from knotpoly import cli

Run = namedtuple("Run", "code out err")


@pytest.fixture(autouse=True)
def _no_format_env(monkeypatch):
    # the caller's KNOTPOLY_FORMAT would change every text query, in process
    # and in the subprocesses that copy os.environ; a test that wants it sets it
    monkeypatch.delenv(cli.FORMAT_ENV, raising=False)


@pytest.fixture()
def run(capsysbinary):
    """``run(argv) -> Run(code, out, err)``: call ``cli.main(argv)`` and read
    what it wrote to stdout and stderr, as bytes, through pytest's capture."""

    def run(argv):
        code = cli.main(argv)
        return Run(code, *capsysbinary.readouterr())

    return run
