"""The README's examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading, language):
    """Source of the first ``language`` code fence under the ``## heading``
    of README.md."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    match = re.match(rf"\s*```{language}\n(.*?)\n```\n", section, re.S)
    assert match, f"no {language} fence opens the section {heading!r}"
    return match.group(1)


def test_library_quickstart_runs(capsys):
    source = fenced_block("Library quickstart", "python")
    exec(compile(source, "README.md: Library quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("NondegeneracyReport(primal_witness_dim=0, dual_witness_dim=0")
    # The planted instance is nondegenerate, so Fix(M) = {0} and ||M|| < 1.
    assert 0.0 < float(lines[-1]) < 1.0
