"""The command-line examples in README.md hold.

Each `$ adequiver ...` block in the README is run in process, next to
the `theta.json` and `rep.json` records the README shows, and the lines
the block shows must appear, in the same order, in the real output.
Every name the README spells `module.name` resolves in the package, and
its Layout table lists every module.
"""

import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

import adequiver
from adequiver import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = sorted(p.stem for p in Path(adequiver.__file__).parent.glob("*.py")
                 if p.stem not in ("__init__", "__main__"))
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
EXAMPLES = [body.splitlines() for lang, body in BLOCKS
            if not lang and body.startswith("$ adequiver ")]


def _record(key: str) -> dict:
    # the first JSON block holding `key` at its top level
    for lang, body in BLOCKS:
        if lang == "json":
            try:
                record = json.loads(body)
            except ValueError:
                continue                # the point-data sketch elides with "..."
            if key in record:
                return record
    raise LookupError(f"README shows no JSON record with {key!r}")


def _in_order(shown: list[str], actual: list[str]) -> bool:
    rest = iter(actual)
    return all(line in rest for line in shown)


def test_readme_has_the_examples():
    assert [lines[0].split()[2] for lines in EXAMPLES] == [
        "roots", "mckay-verify", "exc-locus", "check-rep", "roundtrip", "monad-check"]


@pytest.mark.parametrize("lines", EXAMPLES, ids=[lines[0][len("$ adequiver "):] for lines in EXAMPLES])
def test_readme_example(lines, tmp_path, monkeypatch, capsys):
    (tmp_path / "theta.json").write_text(json.dumps(_record("theta")))
    (tmp_path / "rep.json").write_text(json.dumps(_record("dims")))
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(lines[0])[2:])
    actual = capsys.readouterr().out.splitlines()
    assert code in (0, 1, 2)
    assert _in_order(lines[1:], actual), "\n".join(actual)


def _module(name: str):
    return importlib.import_module(f"adequiver.{name}")


def _package_names() -> list[str]:
    # every backticked dotted name whose head is the package, one of its modules or a name
    # one of its modules defines (`GammaGroup.elements`); `fractions.Fraction` is not one
    heads = {"adequiver", *MODULES} | {k for m in MODULES for k in vars(_module(m))
                                       if not k.startswith("_")}
    return sorted({name for name in re.findall(r"`(\w+(?:\.\w+)+)`", README)
                   if name.split(".")[0] in heads})


def test_readme_names_resolve_in_the_package():
    names = _package_names()
    assert len(names) >= 15, names
    for name in names:
        head, *rest = name.removeprefix("adequiver.").split(".")
        if head in MODULES:
            obj = _module(head)
        else:
            obj = next(getattr(_module(m), head) for m in MODULES if hasattr(_module(m), head))
        for part in rest:
            assert hasattr(obj, part), f"README names {name}, which does not resolve"
            obj = getattr(obj, part)


def test_readme_layout_lists_every_module():
    layout = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^\| `adequiver\.(\w+)` \|", layout, re.M)) == MODULES
