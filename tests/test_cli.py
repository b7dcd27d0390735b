import json
import math

import pytest

from zetaderiv import cli, plots


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


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ["regions", "--k", "38", "--cache", str(cache)]
    code, out1 = run(capsys, *args)
    assert code == 0
    entries = [json.loads(l) for l in cache.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["record"]["command"] == "regions"
    assert len(entries[0]["record"]["results_digest"]) == 64

    code, out2 = run(capsys, *args, "--use-cache")
    assert code == 0
    assert "(cached:" in out2
    assert out1.strip() in out2

    # identical invocations produce identical digests
    run(capsys, *args)
    entries = [json.loads(l) for l in cache.read_text().splitlines()]
    assert len(entries) == 2
    assert (entries[0]["record"]["results_digest"]
            == entries[1]["record"]["results_digest"])


def test_cache_key_includes_version(tmp_path, capsys, monkeypatch):
    args = ["regions", "--k", "38", "--cache", str(tmp_path / "c.jsonl")]
    run(capsys, *args)
    code, out = run(capsys, *args, "--use-cache")
    assert "(cached:" in out
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    code, out = run(capsys, *args, "--use-cache")
    assert code == 0
    assert "(cached:" not in out


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"key": "x"\n[1, 2]\n')
    args = ["regions", "--k", "38", "--cache", str(cache), "--use-cache"]
    code, out1 = run(capsys, *args)
    assert code == 0
    assert "(cached:" not in out1
    code, out2 = run(capsys, *args)
    assert "(cached:" in out2
    assert out1.strip() in out2


def test_berndt_guard(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "berndt", "--k", "5", "--T", "50")


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


def test_zeros_takes_exactly_one_height(capsys):
    for extra in ([], ["--T", "5", "--count-at", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["zeros", "--M", "2", "--k", "38"] + extra)
        assert exit_info.value.code == 2
        assert "--count-at" in capsys.readouterr().err
