import dataclasses
import json
import math
from xml.etree import ElementTree

import pytest

from zetaderiv import cli, plots, zeros
from zetaderiv.geometry import strip


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_series_route(capsys):
    code, out = run(capsys, "eval", "--sigma", "4", "--t", "0", "--k", "2")
    assert code == 0
    assert "[series]" in out
    assert "x 10^" in out


def test_eval_continuation_routes(capsys):
    code, out = run(capsys, "eval", "--sigma", "0.5", "--t", "14.1",
                    "--k", "0")
    assert "[euler-maclaurin]" in out
    code, out = run(capsys, "eval", "--sigma", "0.5", "--t", "14.1",
                    "--k", "1")
    assert "[cauchy-circle]" in out


def test_regions_k38(capsys):
    code, out = run(capsys, "regions", "--k", "38")
    assert code == 0
    assert "wedge  M= 2" in out
    assert "wedge  M= 3" in out
    assert "strip  S_2" in out
    assert "c(38) = 1" in out


def test_zeros_count_at(capsys):
    code, out = run(capsys, "zeros", "--M", "2", "--k", "38",
                    "--count-at", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("{")]
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) >= {"location", "M", "k", "j", "residual",
                        "simplicity_margin", "newton_iters", "predicted"}
    assert "N = 2 zeros" in out


def test_zeros_count_at_high_order(capsys):
    # every cell of S_28 at k = 10^5 below J = 40 is located
    code, out = run(capsys, "zeros", "--M", "28", "--k", "100000",
                    "--count-at", "40")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("{")]) == 40
    assert out.splitlines()[-1].startswith("N = 40 zeros up to T =")


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "m4-10")
    assert code == 0
    assert "21/21 checks passed" in out
    code, out = run(capsys, "verify", "vk")
    assert code == 1  # the known-false published bound keeps this red


def test_plot_roundtrip(tmp_path, capsys):
    prefix = tmp_path / "zmap"
    code, out = run(capsys, "plot", "zeros", "--M", "2", "--k", "38",
                    "--T", "40", "--out", str(prefix))
    assert code == 0
    csv_path = prefix.with_suffix(".csv")
    svg_path = prefix.with_suffix(".svg")
    assert csv_path.exists() and svg_path.exists()
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header.split(",")[:3] == ["M", "k", "j"]
    # 17-significant-digit CSV reparses to the exact float
    first = rows[0].split(",")
    sigma = float(first[3])
    assert math.isfinite(sigma)
    assert ("%.16e" % sigma) == first[3]
    assert svg_path.read_text().startswith("<svg")


_SVG = "{http://www.w3.org/2000/svg}"


def _panels(svg_path):
    """The elements of each strip panel of a zero map, assigned to the
    panel whose strip rectangle spans their x."""
    root = ElementTree.parse(svg_path).getroot()
    panels = []
    for r in root.iter(_SVG + "rect"):
        x = float(r.get("x"))
        panels.append((x, x + float(r.get("width")), []))
    for el in root:
        if el.tag != _SVG + "rect":
            x = float(el.get("cx") or el.get("x1") or el.get("x"))
            [found] = [els for lo, hi, els in panels if lo <= x <= hi]
            found.append(el)
    return [els for _, _, els in panels]


@pytest.mark.parametrize("figure", ["zeros", "figure4"])
def test_every_strip_panel_draws_the_same_parts(figure, tmp_path):
    if figure == "zeros":
        panels = [(2, 38, 40.0)]
        csv_path, svg_path = plots.plot_zeros(2, 38, 40.0, tmp_path / "z")
    else:
        panels = [(2, k, 3 * strip(2, k).period) for k in (100, 200)]
        csv_path, svg_path = plots.plot_figure4(tmp_path / "f", ks=(100, 200))
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    drawn = _panels(svg_path)
    assert len(drawn) == len(panels)
    for (M, k, T), els in zip(panels, drawn):
        tags = [el.tag[len(_SVG):] for el in els]
        strokes = [el.get("stroke") for el in els]
        fills = [el.get("fill") for el in els if el.tag == _SVG + "circle"]
        n_lines = sum(2 * math.pi * j / strip(M, k).delta <= T
                      for j in range(100))
        n_records = sum(row[:2] == [str(M), str(k)] for row in rows)
        assert n_records > 0
        assert strokes.count("navy") == 1  # the center line
        assert strokes.count("darkgreen") == n_lines
        assert fills.count("gray") == fills.count("red") == n_records
        assert tags.count("text") == 1


def test_plot_regions(tmp_path, capsys):
    prefix = tmp_path / "regions"
    code, _ = run(capsys, "plot", "regions", "--k", "100",
                  "--out", str(prefix))
    assert code == 0
    text = prefix.with_suffix(".csv").read_text()
    assert text.startswith("kind,M,")
    assert "strip" in text and "wedge" in text


def test_plot_regions_lists_every_strip_and_wedge(tmp_path):
    # strips S_M with M >= 40 exist from k = 51,541 on
    csv_path, _ = plots.plot_regions(10 ** 5, tmp_path / "regions")
    kinds = [row.split(",")[0]
             for row in csv_path.read_text().splitlines()[1:]]
    assert kinds.count("strip") == 51
    assert kinds.count("wedge") == 52


@pytest.mark.parametrize("results,code", [
    ({"failures": 2}, 1), ({"failures": 0}, 0), ({"expected": 5}, 1),
    ({"count": 1}, 0)])
def test_exit_code_follows_the_results(results, code, capsys, monkeypatch):
    # a failed check or a count other than the one asked for, whatever the
    # command
    monkeypatch.setattr(cli, "cmd_regions", lambda args: (results, ["x"]))
    assert run(capsys, "regions", "--k", "38") == (code, "x\n")


@pytest.mark.parametrize("argv", [
    ["berndt", "--k", "1", "--T", "0"],
    ["berndt", "--k", "1", "--T", "-5"],
    ["eval", "--sigma", "2", "--t", "0", "--k", "-1"],
    ["eval", "--sigma", "0.5", "--t", "3", "--k", "-1"],
    ["eval", "--sigma", "2", "--t", "0", "--k", "1", "--eps", "0"],
    ["eval", "--sigma", "-1", "--t", "3", "--k", "1"],
    ["regions", "--k", "2"],
    ["zeros", "--M", "1", "--k", "38", "--T", "5"],
    ["zeros", "--M", "2", "--k", "2", "--T", "5"],
    ["zeros", "--M", "9", "--k", "38", "--T", "5"],
    ["zeros", "--M", "2", "--k", "38", "--T", "0"],
    ["zeros", "--M", "2", "--k", "38", "--count-at", "0"],
    ["plot", "zeros", "--T", "0"],
    ["plot", "regions", "--k", "2"],
    # the continuation's caps and the one height plot zeros needs
    ["berndt", "--k", "5", "--T", "50"],
    ["berndt", "--k", "1", "--T", "300"],
    ["plot", "zeros"],
    # eps > 0 on every route: Euler-Maclaurin, Cauchy circles, and the
    # series' practicality probe
    *(["eval", "--sigma", "1.02", "--t", "1", "--k", k, "--eps", eps]
      for k in ("0", "1") for eps in ("0", "-1", "nan")),
    ["eval", "--sigma", "1.5", "--t", "1", "--k", "2", "--eps", "nan"],
    # non-finite heights and points
    ["zeros", "--M", "2", "--k", "38", "--T", "inf"],
    ["zeros", "--M", "2", "--k", "38", "--T", "nan"],
    ["eval", "--sigma", "2", "--t", "inf", "--k", "1"],
    ["eval", "--sigma", "nan", "--t", "1", "--k", "1"],
    ["berndt", "--k", "1", "--T", "nan"],
    # heights where adjacent floats are a period apart
    ["zeros", "--M", "2", "--k", "38", "--T", "1e300"],
    ["zeros", "--M", "2", "--k", "38", "--count-at", "1000000000000000000"],
])
def test_out_of_range_input_is_one_stderr_line(argv, capsys, tmp_path):
    if argv[0] == "plot":
        argv = argv + ["--out", str(tmp_path / "p")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"zetaderiv {argv[0]}: ")
    assert "Traceback" not in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,named", [
    (["zeros", "--M", "2", "--k", "38", "--T", "inf"], "T = inf"),
    (["zeros", "--M", "2", "--k", "38", "--T", "nan"], "T = nan"),
    (["eval", "--sigma", "2", "--t", "inf", "--k", "1"], "t = inf"),
    (["eval", "--sigma", "nan", "--t", "1", "--k", "1"], "sigma = nan"),
    (["berndt", "--k", "1", "--T", "nan"], "got nan"),
    (["zeros", "--M", "2", "--k", "38", "--T", "1e300"], "T = 1e+300"),
    (["zeros", "--M", "2", "--k", "38", "--count-at", "1000000000000000000"],
     "T = 1.5496241677849733e+19"),
])
def test_non_finite_input_is_named(argv, named, capsys):
    assert cli.main(argv) == 2
    assert named in capsys.readouterr().err


def test_berndt_rejects_a_negative_order(capsys):
    assert cli.main(["berndt", "--k", "-1", "--T", "50"]) == 2
    assert "derivative order" in capsys.readouterr().err


def test_locate_error_propagates(monkeypatch):
    # only a ValueError becomes an exit code; a cell Newton cannot locate
    # must reach the caller
    def fail(M, k, T):
        raise zeros.LocateError(0j, "no convergence in cell (injected)")

    monkeypatch.setattr(cli, "enumerate_zeros", fail)
    with pytest.raises(zeros.LocateError):
        cli.main(["zeros", "--M", "2", "--k", "38", "--count-at", "2"])


def test_removed_cache_options_are_usage_errors(capsys):
    for option in ("--use-cache", "--cache=c.jsonl"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["regions", "--k", "38", option])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""


def test_zeros_takes_exactly_one_height(capsys):
    for extra in ([], ["--T", "5", "--count-at", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["zeros", "--M", "2", "--k", "38"] + extra)
        assert exit_info.value.code == 2
        assert "--count-at" in capsys.readouterr().err


@pytest.mark.parametrize("M,k", [(2, 38), (3, 1600), (5, 800)])
def test_zero_records_encode_as_their_asdict(M, k):
    # each record's dict is built from its fields, not by asdict, and
    # must stay byte-identical to it
    args = cli.build_parser().parse_args(
        ["zeros", "--M", str(M), "--k", str(k), "--count-at", "40"])
    results, lines = cli.cmd_zeros(args)
    records, n = zeros.enumerate_zeros(M, k, results["T"])
    want = [dataclasses.asdict(r) for r in records]
    assert n == 40
    assert lines[:-1] == [json.dumps(d, sort_keys=True) for d in want]
    assert results["records"] == want


_SEQUENCE = [["zeros", "--M", "2", "--k", "38", "--T", "50"],
             ["zeros", "--M", "2", "--k", "38", "--count-at", "5"],
             ["eval", "--sigma", "2", "--t", "1", "--k", "1"],
             ["regions", "--k", "38"]]


def test_one_parser_serves_every_call_of_a_process(capsys):
    alone = []
    for argv in _SEQUENCE:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    parser = cli._parser()
    # twice over, so that each command also follows every other one
    assert [run(capsys, *argv) for argv in _SEQUENCE * 2] == alone * 2
    assert cli._parser() is parser
    assert cli.build_parser() is not parser


def test_main_calls_the_command_bound_at_call_time(capsys, monkeypatch):
    run(capsys, "regions", "--k", "38")  # the parser exists before the patch
    monkeypatch.setattr(cli, "cmd_zeros",
                        lambda args: ({"N": 0}, [f"patched M={args.M}"]))
    assert run(capsys, "zeros", "--M", "2", "--k", "38", "--T", "5") == \
        (0, "patched M=2\n")
