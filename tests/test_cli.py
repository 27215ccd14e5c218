"""The command-line interface: commands, exit codes, JSON output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cwgraphs.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_g5(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA / "g5.edges"))
    assert code == 0
    payload = json.loads(out)
    assert payload["cm_type"] == 2
    assert payload["classification"]["tag"] == "CameronWalker"
    assert payload["reg"] == 2


def test_analyze_petersen(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA / "petersen.edges"))
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"]["tag"] == "Other"
    assert payload["im"] == 3 and payload["m"] == 5
    assert payload["reg"] is None


def test_analyze_malformed_line(capsys):
    code, out, err = run(capsys, "analyze", str(DATA / "nope.edges"))
    assert code == 1
    bad = DATA.parent / "tmp_bad.edges"
    bad.write_text("a b c\n")
    try:
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "line 1" in err
    finally:
        bad.unlink()


def test_classify_star7(capsys):
    code, out, _ = run(capsys, "classify", str(DATA / "star7.edges"))
    assert code == 0
    assert json.loads(out)["tag"] == "StarTriangle"


def test_classify_k4(capsys):
    code, out, _ = run(capsys, "classify", str(DATA / "k4.edges"))
    assert code == 0
    assert json.loads(out) == {"tag": "Other", "reason": "im!=m"}


def test_shelling_g5(capsys):
    code, out, _ = run(capsys, "shelling", str(DATA / "g5.edges"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["facets"]) == 5
    assert payload["provenance"][0]["family"] == "F"


def test_shelling_p5_has_complete_support(capsys):
    # P5's support is the path x1-y1-x2 = K_{2,1}, which is complete bipartite
    code, out, _ = run(capsys, "shelling", str(DATA / "p5.edges"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["facets"]) == 4
    families = {(p["family"], tuple(p.get("I", p.get("J")))) for p in payload["provenance"]}
    assert families == {("F", ()), ("G", (1,)), ("G", (2,)), ("G", (1, 2))}


def test_shelling_refusal(capsys):
    code, out, err = run(capsys, "shelling", str(DATA / "p4support.edges"))
    assert code == 3
    assert out == ""
    assert "refused" in err


def test_shelling_refusal_non_cw(capsys):
    code, _, err = run(capsys, "shelling", str(DATA / "k4.edges"))
    assert code == 3


def test_generate_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["generate", "--n", "2", "--m", "2", "--max-f", "2", "--max-t", "1",
            "--density", "0.4", "--seed", "11"]
    code, _, _ = run(capsys, *args, "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, *args, "--out", str(out2))
    assert code == 0
    assert (out1.with_suffix(".edges")).read_text() == (out2.with_suffix(".edges")).read_text()
    assert (out1.with_suffix(".json")).read_text() == (out2.with_suffix(".json")).read_text()
    # generated graph analyzes as Cameron-Walker
    code, out, _ = run(capsys, "analyze", str(out1.with_suffix(".edges")))
    assert code == 0
    assert json.loads(out)["classification"]["tag"] == "CameronWalker"


def test_oracle_command_on_bundled_corpus(capsys):
    for name in ("g5", "p5", "star7", "k4", "petersen", "p4support"):
        code, out, err = run(capsys, "oracle", str(DATA / f"{name}.edges"))
        assert code == 0, (name, err)
        assert json.loads(out)["mismatches"] == []


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a b\nb c\n")))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    assert json.loads(out)["tag"] == "Star"


def test_json_format_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["tag"] == "Star"


def test_text_output(capsys):
    code, out, _ = run(capsys, "classify", str(DATA / "star7.edges"), "--output", "text")
    assert code == 0
    assert "tag: StarTriangle" in out
    # a stdout without a byte buffer, as under contextlib.redirect_stdout
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["classify", str(DATA / "star7.edges"), "--output", "text"]) == 0
    assert buf.getvalue() == out


def test_json_output_byte_stable(capsys):
    _, first, _ = run(capsys, "analyze", str(DATA / "g5.edges"))
    _, second, _ = run(capsys, "analyze", str(DATA / "g5.edges"))
    assert first == second
    _, a, _ = run(capsys, "shelling", str(DATA / "g5.edges"))
    _, b, _ = run(capsys, "shelling", str(DATA / "g5.edges"))
    assert a == b


@pytest.mark.parametrize(
    "text",
    ['{"edges": [[1, 2]]}', '{"edges": 5}', '{"edges": [["a", ""]]}'],
)
def test_malformed_json_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 1
    assert out == "" and err.startswith("input error:")


def test_negative_max_vertices_is_an_input_error(capsys):
    code, out, err = run(capsys, "analyze", str(DATA / "g5.edges"), "--max-vertices", "-1")
    assert code == 1
    assert out == "" and "--max-vertices" in err


def test_analyze_notes_a_formula_only_cm_type(capsys):
    # Under a cap of 2 the derived graph G' (3 vertices) is not counted,
    # so cm_type = 2^m carries the note that only the formula gave it.
    code, out, _ = run(capsys, "analyze", str(DATA / "g5.edges"), "--max-vertices", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["cm_type"] == 2
    assert payload["cm_type_reason"] == "formula only; derived graph exceeds the cap"
    keys = list(payload)
    assert keys.index("cm_type_reason") == keys.index("cm_type") + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--max-vertices", "abc", str(DATA / "g5.edges")],
        ["analyze", "--bogus", str(DATA / "g5.edges")],
        ["bogus", str(DATA / "g5.edges")],
        ["analyze", str(DATA / "g5.edges"), "--format=yaml"],
        ["analyze", str(DATA / "g5.edges"), "--format"],
        ["analyze", str(DATA / "g5.edges"), str(DATA / "k4.edges")],
        ["analyze", str(DATA / "g5.edges"), "--form", "edgelist"],  # no abbreviations
        ["generate", "--m", "2", "--out", "never-written"],
        ["generate", "--n", "2", "--m", "2", "--density", "abc", "--out", "never-written"],
    ],
)
def test_usage_errors_are_input_errors(capsys, argv):
    # exit 2 means a size or budget guard, so usage errors exit 1
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "error:" in err


def test_max_vertices_is_an_analyze_option_only(capsys):
    code, out, err = run(capsys, "classify", "--max-vertices", "3", str(DATA / "g5.edges"))
    assert code == 1
    assert out == "" and "unrecognized arguments: --max-vertices" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: cwgraphs")


def test_command_help_exits_0(capsys):
    code, out, err = run(capsys, "analyze", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: cwgraphs analyze")


def test_option_value_after_equals_sign(capsys):
    code, out, _ = run(capsys, "analyze", "--output=text", str(DATA / "g5.edges"))
    assert code == 0
    assert "cm_type: 2" in out.splitlines()


def test_undecodable_input_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.edges"
    path.write_bytes(b"a b\n\xff c\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == "" and err.startswith("input error: input is not UTF-8")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))
    assert run(capsys, "classify", "-")[0] == 1


def test_directory_path_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "classify", str(tmp_path))
    assert code == 1
    assert out == "" and err.startswith("input error: cannot read")


def test_generate_into_missing_directory_is_an_input_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "generate", "--n", "2", "--m", "2", "--out", str(tmp_path / "nope" / "g")
    )
    assert code == 1
    assert out == "" and err.startswith("input error: cannot write")


@pytest.mark.parametrize("stdin", [False, True])
def test_utf8_labels_under_a_c_locale(tmp_path, stdin):
    # input is UTF-8 whatever the locale, for files and for stdin alike
    path = tmp_path / "g5.edges"
    path.write_bytes((DATA / "g5.edges").read_text().replace("x", "x\u00e9").encode())
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    argv = [sys.executable, "-m", "cwgraphs.cli", "shelling", "-" if stdin else str(path)]
    proc = subprocess.run(
        argv, input=path.read_bytes() if stdin else None, capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert ["w", "x\u00e9"] in json.loads(proc.stdout)["facets"]


@pytest.mark.parametrize("command", ["classify", "analyze", "shelling"])
def test_text_output_is_utf8_under_a_c_locale(tmp_path, command):
    # text output is written in the encoding input is read with
    path = tmp_path / "g5.edges"
    path.write_bytes((DATA / "g5.edges").read_text().replace("x", "x\u00e9").encode())
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    argv = [sys.executable, "-m", "cwgraphs.cli", command, str(path), "--output", "text"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "x\u00e9" in proc.stdout.decode("utf-8")
