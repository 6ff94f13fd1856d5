"""Regenerate the expected reports of the golden corpus.

Every case of cases.json is a command line run through `cli.main` in this
directory, so the input paths and their sha256 lines stay the same on
every checkout.  Each case runs as given and with --json; the stdout goes
to expected/<case>.txt and expected/<case>.json, and the exit codes to
expected/exit_codes.json.  After a change to a report, run from the
repository root

    PYTHONPATH=src python tests/golden/regenerate.py

and review the diff under tests/golden/expected/.
"""

import contextlib
import io
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent


def calls():
    """(name, argv, expected file) of every call: each case, then the same with --json."""
    for name, argv in json.loads((HERE / "cases.json").read_text()).items():
        yield name, argv, f"{name}.txt"
        yield f"{name} --json", [*argv, "--json"], f"{name}.json"


def run(argv):
    """(exit code, stdout) of one in-process call; the working directory must be HERE."""
    from adequiver import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    os.chdir(HERE)
    (HERE / "expected").mkdir(exist_ok=True)
    codes = {}
    for name, argv, filename in calls():
        codes[name], out = run(argv)
        (HERE / "expected" / filename).write_text(out, encoding="utf-8")
    (HERE / "expected" / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    main()
