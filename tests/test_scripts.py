import runpy
import sys
from pathlib import Path

from zetaderiv.geometry import layout

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_zero_survey_one_line_per_strip(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv",
                        ["zero_survey.py", "--k", "100", "--periods", "1"])
    runpy.run_path(str(SCRIPTS / "zero_survey.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    strips = layout(100)[1]
    assert [sp.M for sp in strips] == [2, 3]
    assert [line.split()[0] for line in lines] == [f"S_{sp.M}"
                                                  for sp in strips]
    assert all(" 1 zeros," in line for line in lines)
