"""The README's examples run as written."""

import dataclasses
import importlib
import json
import pathlib
import pkgutil
import re
import shlex

import sdpadmm
from sdpadmm.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading, language):
    """Source of the first ``language`` code fence under the ``## heading``
    of README.md (``language`` "" is a fence with no language)."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(rf"^```{language}\n(.*?)\n```$", section, re.S | re.M)
    assert match, f"no {language} fence in the section {heading!r}"
    return match.group(1)


def test_library_quickstart_runs(capsys):
    source = fenced_block("Library quickstart", "python")
    exec(compile(source, "README.md: Library quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("NondegeneracyReport(primal_witness_dim=0, dual_witness_dim=0")
    # The planted instance is nondegenerate, so Fix(M) = {0} and ||M|| < 1.
    assert 0.0 < float(lines[-1]) < 1.0


def test_command_line_example_runs(tmp_path, capsys, monkeypatch):
    # The fence's generate line writes the instance that the "Solve manifest"
    # example then solves.
    (line,) = [line for line in fenced_block("Command line", "").splitlines()
               if line.startswith("sdpadmm generate planted ")]
    argv = shlex.split(line, comments=True)[1:]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    manifest = json.loads(fenced_block("Command line", "json"))
    assert manifest["instance"] == argv[argv.index("--out") + 1]
    for key in ("instance", "out"):
        manifest[key] = str(tmp_path / manifest[key])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    assert main(["solve", "--manifest", str(path)]) == 0
    assert capsys.readouterr().err.splitlines()[-1].startswith("status: converged ")
    summary = json.loads((tmp_path / manifest["out"] / "summary.json").read_text())
    assert summary["status"] == "converged"


FILE_SUFFIXES = (".json", ".csv", ".npz", ".npy", ".dat-s")


def resolves(module, attrs):
    """Whether ``sdpadmm.<module>.<attrs...>`` names an attribute, or a field
    of the dataclass that the attributes before it name."""
    obj = importlib.import_module(f"sdpadmm.{module}")
    for i, attr in enumerate(attrs):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
            continue
        last = i == len(attrs) - 1
        return last and dataclasses.is_dataclass(obj) and attr in {
            f.name for f in dataclasses.fields(obj)
        }
    return True


def test_readme_names_resolve():
    # Every backticked `module.name` (or `module.name.attr`, optionally after
    # `sdpadmm.`) of a package module names something that exists, so a
    # rename or removal cannot leave the README behind. File names such as
    # `diagnostics.json` are not references.
    modules = "|".join(m.name for m in pkgutil.iter_modules(sdpadmm.__path__))
    pattern = re.compile(rf"`(?:sdpadmm\.)?({modules})((?:\.[A-Za-z_]\w*)+)([^`]*)`")
    refs = [(m[1], m[2][1:].split("."), m[0]) for m in pattern.finditer(README.read_text("utf-8"))
            if not (m[2] + m[3]).endswith(FILE_SUFFIXES)]
    assert refs
    assert [text for module, attrs, text in refs if not resolves(module, attrs)] == []
    assert resolves("diagnostics", ["EigenFrame", "bt"])
    assert not resolves("linearization", ["no_such_name"])
