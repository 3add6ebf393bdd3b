"""The README's library quick tour runs and prints what its comments say,
and the CSV headers it lists are the ones the commands write."""

import os
import re
import subprocess
import sys

from kessence.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _agrees(printed: str, expected: str) -> bool:
    """A plain expected value is the printed text; one marked ~ is the
    printed value rounded to the significant digits the comment shows."""
    if not expected.startswith("~"):
        return printed == expected
    expected = expected[1:]
    mantissa = expected.lstrip("-").split("e")[0]
    digits = len(mantissa.replace(".", "").lstrip("0"))
    return float(f"{float(printed):.{digits - 1}e}") == float(expected)


def test_agrees():
    assert _agrees("-1.0", "-1.0") and not _agrees("-1", "-1.0")
    assert _agrees("-3.795673243647517e-05", "~-3.8e-05")
    assert _agrees("1.080138839285724e-08", "~1e-08")
    assert not _agrees("1.080138839285724e-08", "~1e-10")
    assert not _agrees("-3.795673243647517e-05", "~-1")


def test_readme_quick_tour_prints_its_comments():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    code = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme,
                     re.S).group(1)
    expected = [line.split("#", 1)[1].split()
                for line in code.splitlines() if line.startswith("print(")]
    path = [os.path.join(ROOT, "src")] + [p for p in (
        os.environ.get("PYTHONPATH"),) if p]
    run = subprocess.run([sys.executable, "-W", "error", "-c", code],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert run.returncode == 0 and run.stderr == "", run.stderr
    printed = [line.split() for line in run.stdout.splitlines()]
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        assert len(got) == len(want) and all(map(_agrees, got, want)), (got, want)


def test_readme_output_headers_are_the_written_headers(tmp_path):
    """The header lines listed under "Output files" are exactly the first
    lines of the CSVs the four commands write."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = re.search(r"\n## Output files\n(.*?)\n## ", fh.read(),
                            re.S).group(1)
    listed = [line.strip() for line in section.splitlines()
              if line.startswith("    ")]
    for command, preset in [("wall", "figure1"), ("eos-scan", "paper-point"),
                            ("evolve", "paper-point"),
                            ("regimes", "paper-point")]:
        assert main([command, "--preset", preset, "--out", str(tmp_path),
                     "--quiet"]) == 0
    written = set()
    for path in tmp_path.glob("*.csv"):
        with open(path, encoding="utf-8") as fh:
            written.add(fh.readline().rstrip("\n"))
    assert len(listed) == 5 and sorted(listed) == sorted(written)
