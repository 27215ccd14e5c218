"""The command-line interface: commands, exit codes, JSON output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import shelling_past_the_cap
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
    code, out, err = run(capsys, "shelling", str(DATA / "k4.edges"))
    assert code == 3
    assert out == ""
    assert err == "refused: graph has no leaf, but every left vertex needs one\n"


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


def test_oracle_command_enumerates_the_complex_once(capsys, monkeypatch):
    from cwgraphs import complexes, invariants

    built = []
    original = complexes.independence_complex

    def counting(g):
        built.append(g.vertex_count)
        return original(g)

    for module in (complexes, invariants):
        monkeypatch.setattr(module, "independence_complex", counting)
    for name in ("g5", "p5", "petersen"):
        built.clear()
        code, out, err = run(capsys, "oracle", str(DATA / f"{name}.edges"))
        assert code == 0, (name, err)
        assert len(built) == 1, name


def test_oracle_disagreement_exits_4(capsys, monkeypatch):
    from cwgraphs import oracle

    monkeypatch.setattr(oracle, "oracle_matchings", lambda g: (0, 0))
    code, out, err = run(capsys, "oracle", str(DATA / "g5.edges"))
    assert code == 4
    assert json.loads(out)["mismatches"] == ["matchings: fast (2, 2) vs oracle (0, 0)"]
    assert err == "oracle disagreement\n"


def test_oracle_names_each_disagreement(capsys, monkeypatch):
    from cwgraphs import oracle

    monkeypatch.setattr(oracle, "oracle_max_independent_sets", lambda g: ())
    monkeypatch.setattr(oracle, "oracle_shelling_exists", lambda cx: (False, None))
    code, out, err = run(capsys, "oracle", str(DATA / "g5.edges"))
    assert code == 4
    assert json.loads(out)["mismatches"] == [
        "maximal independent sets differ",
        "minimal vertex covers differ",
        "vertex decomposable but no shelling found",
    ]
    assert err == "oracle disagreement\n"


def test_other_package_errors_exit_1(capsys, monkeypatch):
    # an error outside the input and size-guard groups, such as a
    # certificate that fails its own check, still exits without a traceback
    from cwgraphs import invariants
    from cwgraphs.errors import InvalidDecomposition

    def fail(g):
        raise InvalidDecomposition("witness cover failed its minimality check")

    monkeypatch.setattr(invariants, "full_report", fail)
    code, out, err = run(capsys, "analyze", str(DATA / "g5.edges"))
    assert code == 1
    assert out == "" and err == "error: witness cover failed its minimality check\n"


def test_shelling_past_the_facet_cap_is_a_size_guard(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in shelling_past_the_cap().edges))
    code, out, err = run(capsys, "shelling", str(path))
    assert code == 2
    assert out == "" and err.startswith("size guard: shelling would have 8193 facets")


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


def cm_past_the_cap(tmp_path, capsys) -> str:
    """A generated Cohen-Macaulay Cameron-Walker graph on 41 vertices:
    one leaf and 13 triangles, so G' has 1 + 2 * 13 = 27 vertices."""
    out_base = tmp_path / "cm13"
    code, _, _ = run(
        capsys, "generate", "--n", "1", "--m", "13", "--max-f", "1", "--max-t", "1",
        "--seed", "0", "--out", str(out_base),
    )
    assert code == 0
    return f"{out_base}.edges"


def test_analyze_notes_a_formula_only_cm_type(tmp_path, capsys):
    # past the complex cap the derived graph G' is not counted, so
    # cm_type = 2^m carries the note that only the formula gave it
    code, out, err = run(capsys, "analyze", cm_past_the_cap(tmp_path, capsys))
    assert code == 2 and err == ""
    payload = json.loads(out)
    assert payload["cm"] is True and payload["cm_type"] == 2**13
    assert payload["cm_type_reason"] == "formula only; derived graph exceeds the cap"
    keys = list(payload)
    assert keys.index("cm_type_reason") == keys.index("cm_type") + 1


def test_capped_analyze_takes_theorem_fields_from_the_certificate(tmp_path, capsys):
    # Above the cap the complex is not built, but the decomposition still
    # gives unmixed = CM and vertex decomposability; the fields that need
    # the facet sizes stay null with their reasons.
    code, out, _ = run(capsys, "analyze", cm_past_the_cap(tmp_path, capsys))
    assert code == 2
    payload = json.loads(out)
    assert payload["partial"] is True
    for name in ("unmixed", "vertex_decomposable", "sequentially_cm"):
        assert payload[name] is True
        assert f"{name}_reason" not in payload
    for name in ("cover_cardinalities", "i_g", "pd"):
        assert payload[name] is None
        assert payload[f"{name}_reason"] == "independence-complex cap is 26 vertices, graph has 41"


def test_capped_analyze_takes_star_triangle_unmixed_from_the_closed_form(tmp_path, capsys):
    # 14 triangles at one vertex (29 vertices): covers of sizes 15 and 28,
    # so mixed, which the closed form gives without the complex
    path = tmp_path / "t14.edges"
    path.write_text("".join(f"c a{k}\nc b{k}\na{k} b{k}\n" for k in range(14)))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["classification"] == {"tag": "StarTriangle"}
    assert payload["unmixed"] is False and "unmixed_reason" not in payload
    assert payload["cover_cardinalities"] is None
    assert "cap is 26 vertices, graph has 29" in payload["cover_cardinalities_reason"]


def test_analyze_past_the_cap_names_the_size_in_every_reason(tmp_path, capsys):
    # a 27-vertex path is tagged Other: the complex and the graph-level
    # vertex-decomposability test both refuse it and say how large it is
    path = tmp_path / "p27.edges"
    path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(26)))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 2
    payload = json.loads(out)
    assert (payload["m"], payload["im"], payload["reg"]) == (13, 9, None)
    assert payload["unmixed_reason"] == "independence-complex cap is 26 vertices, graph has 27"
    assert payload["vertex_decomposable_reason"] == (
        "vertex-decomposability cap is 26 vertices, graph has 27"
    )


@pytest.mark.parametrize(
    "fmt, text",
    [("edgelist", "a b\na a\n"), ("json", '{"edges": [["a", "b"], ["a", "a"]]}')],
)
def test_loop_edge_is_an_input_error(tmp_path, capsys, fmt, text):
    path = tmp_path / "loop.txt"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path), "--format", fmt)
    assert code == 1
    assert out == "" and err == "input error: loop edge at 'a'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "abc", "--m", "2", "--out", "never-written"],
        ["analyze", "--bogus", str(DATA / "g5.edges")],
        ["bogus", str(DATA / "g5.edges")],
        ["analyze", str(DATA / "g5.edges"), "--format=yaml"],
        ["analyze", str(DATA / "g5.edges"), "--format"],
        ["analyze", str(DATA / "g5.edges"), str(DATA / "k4.edges")],
        ["analyze", str(DATA / "g5.edges"), "--form", "edgelist"],  # no abbreviations
        ["generate", "--m", "2", "--out", "never-written"],
        ["generate", "--n", "2", "--m", "2", "--density", "abc", "--out", "never-written"],
        [],
    ],
)
def test_usage_errors_are_input_errors(capsys, argv):
    # exit 2 means a size or budget guard, so usage errors exit 1
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "error:" in err


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_max_vertices_is_not_an_option(capsys, command):
    # the report has no settings: every size limit is a fixed cap
    code, out, err = run(capsys, command, "--max-vertices", "3", str(DATA / "g5.edges"))
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


def test_generate_past_the_work_cap_exits_2(tmp_path, capsys):
    out_base = tmp_path / "g"
    code, out, err = run(
        capsys, "generate", "--n", "1", "--m", "1", "--max-f", str(10**12), "--out", str(out_base)
    )
    assert code == 2
    assert out == "" and err.startswith("size guard: decomposition would take")
    assert not out_base.with_suffix(".edges").exists()


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


def test_overlong_digit_run_is_an_input_error(tmp_path, capsys):
    # past Python's int-string limit (4300 digits by default) a digit
    # run cannot be ordered as an integer
    path = tmp_path / "long.edges"
    path.write_text("a" + "1" * 5000 + " b\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 1
    assert out == "" and err.startswith("input error: vertex label 'a111")


def test_oracle_refuses_past_its_edge_budget_before_searching(tmp_path, capsys, monkeypatch):
    from cwgraphs import cli

    def no_search(g):
        raise AssertionError("fast search before the oracle's budgets")

    monkeypatch.setattr(cli, "matching_number", no_search)
    monkeypatch.setattr(cli, "induced_matching_number", no_search)
    monkeypatch.setattr(cli.complexes, "independence_complex", no_search)
    path = tmp_path / "p22.edges"
    path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(21)))
    code, out, err = run(capsys, "oracle", str(path))
    assert code == 2
    assert out == "" and err == "size guard: oracle edge budget is 20, graph has 21\n"
    # 17 vertices and 16 edges: within the edge budget, past the vertex one
    path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(16)))
    code, out, err = run(capsys, "oracle", str(path))
    assert code == 2
    assert out == "" and err == "size guard: oracle vertex budget is 16, graph has 17\n"


@pytest.mark.parametrize("argv", [["analyze", str(DATA / "g5.edges")], ["--help"]])
def test_closed_stdout_is_an_error_not_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cwgraphs.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert proc.stderr == b"error: standard output is closed\n"


def test_shelling_text_index_sets_are_in_order(tmp_path, capsys):
    # G{1, 8}, not the set repr G{8, 1}: each text line's index set is
    # the I or J list of the JSON provenance
    out_base = tmp_path / "g"
    code, _, _ = run(
        capsys, "generate", "--n", "8", "--m", "1", "--max-f", "1", "--max-t", "1",
        "--density", "1.0", "--seed", "1", "--out", str(out_base),
    )
    assert code == 0
    edges = str(out_base.with_suffix(".edges"))
    code, out, _ = run(capsys, "shelling", edges)
    assert code == 0
    expected = [
        f"{p['family']}{{{', '.join(map(str, p.get('I', p.get('J'))))}}}"
        for p in json.loads(out)["provenance"]
    ]
    code, text, _ = run(capsys, "shelling", edges, "--output", "text")
    assert code == 0
    lines = text.splitlines()
    assert [line[: line.index("}") + 1] for line in lines] == expected
    assert "G{1, 8}" in expected


@pytest.mark.parametrize("command", ["analyze", "classify", "shelling"])
def test_output_does_not_depend_on_the_hash_seed(command):
    # string hashing differs between these seeds, and with it the
    # iteration order of every set and dict of labels
    runs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        for path in sorted(DATA.glob("*.edges")):
            argv = [sys.executable, "-m", "cwgraphs.cli", command, str(path)]
            proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
            runs.setdefault(path.name, []).append((proc.returncode, proc.stdout))
    assert len(runs) == 6
    for name, (first, second) in runs.items():
        assert first == second, name
