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


def test_make_figures_writes_every_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", ["make_figures.py", "--ks", "100",
                                      "--out-dir", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "make_figures.py"), run_name="__main__")
    zero_header = ("M,k,j,sigma,t,predicted_sigma,predicted_t,residual,"
                   "simplicity_margin")
    headers = {"strip_k38": zero_header, "strips_highk": zero_header}
    headers.update({f"regions_k{k}": "kind,M,sigma_lo,sigma_hi,extra"
                    for k in (38, 100, 400)})
    files = {tmp_path / f"{stem}.{ext}" for stem in headers
             for ext in ("csv", "svg")}
    assert set(tmp_path.iterdir()) == files
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(
        f"wrote {p}" for p in files)
    for stem, header in headers.items():
        rows = (tmp_path / f"{stem}.csv").read_text().splitlines()
        assert rows[0] == header and len(rows) > 1
        assert (tmp_path / f"{stem}.svg").read_text().startswith("<svg ")

