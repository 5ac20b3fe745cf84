"""CLI behaviors: exit codes, deterministic JSON, probe files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittkit
from wittkit.cli import build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv):
    """`python -m wittkit argv` in a fresh process importing the package under test."""
    src = str(Path(wittkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "wittkit", *argv], capture_output=True,
                          text=True, check=False, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


def test_parse_echoes_canonical_form(capsys):
    code, out, _ = run_cli(capsys, ["parse", "--arity", "2", "2*t1*d1 + d2 - t1*d1"])
    assert code == 0
    assert out.strip() == "d2 + t1*d1"


def test_bracket_command(capsys):
    code, out, _ = run_cli(capsys, ["bracket", "--arity", "1", "t1^-1*d1", "t1*d1"])
    assert code == 0
    assert out.strip() == "2*d1"


def test_bracket_json_deterministic(capsys):
    argv = ["bracket", "--arity", "2", "--format", "json", "t1*d1", "t2*d2"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second
    payload = json.loads(first[1])
    assert payload == {"bracket": "0"}


def test_centralize_command(capsys):
    code, out, _ = run_cli(capsys, [
        "centralize", "--arity", "2", "--box", "2", "--format", "json", "dmu"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["basis"] == ["d1", "d2"]


def test_verify_lemma_2_2(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--arity", "2", "--k", "2", "lemma2.2"])
    assert code == 0
    assert "PASS" in out
    assert "dimension: 1" in out


def test_verify_json_payload(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--arity", "2", "--k", "3", "--format", "json", "lemma3.3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["lemma"] == "3.3"
    assert payload["coefficient"] == "2*mu1*c"


def test_verify_element_flag_and_positional(capsys):
    argv_pos = ["verify", "--arity", "2", "lemma3.2", "t1*d1"]
    argv_flag = ["verify", "--arity", "2", "--x", "t1*d1", "lemma3.2"]
    first = run_cli(capsys, argv_pos)
    second = run_cli(capsys, argv_flag)
    assert first[0] == 0
    assert first == second


def test_verify_lemma_4_1(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--arity", "3", "--prefix", "2", "--k", "1", "--box", "2",
        "--format", "json", "lemma4.1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 10
    assert payload["spans_equal"] is True


def test_verify_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, [
        "verify", "--arity", "2", "--k", "1", "lemma3.3"])
    assert code == 2
    assert "error" in err


def test_verify_missing_k_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--arity", "2", "lemma2.2"])
    assert exc.value.code == 2


def test_verify_lemma_2_2_box_below_k_is_usage_error(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "--arity", "2", "--k", "4", "--box", "2", "lemma2.2"])
    assert code == 2
    assert out == ""
    assert "box" in err and "outside the box 2" in err


@pytest.mark.parametrize("argv", [
    ["--arity", "2", "--prefix", "1", "lemma4.4", "t1*d1", "--box", "-1"],
    ["--arity", "2", "--prefix", "1", "lemma4.4", "t1*d1", "--box", "0"],
    ["--arity", "2", "--prefix", "1", "lemma4.4", "t1*d1", "--box", "4"],
    ["--arity", "3", "--prefix", "2", "--box", "1", "lemma4.4", "t1*d1 + d2"],
])
def test_verify_lemma_4_4_box_below_k_is_usage_error(capsys, argv):
    # k = 2 n_x + 1 = 5 for both elements; a smaller box holds no shift
    code, out, err = run_cli(capsys, ["verify", *argv, "--format", "json"])
    assert code == 2
    assert out == ""
    assert "power-5 shift family" in err


@pytest.mark.parametrize("lemma", ["lemma2.2", "lemma3.3"])
def test_verify_wn_only_lemma_rejects_variant(capsys, lemma):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--arity", "2", "--k", "2", "--variant", "wnplusplus", lemma])
    assert exc.value.code == 2
    assert "wnplusplus" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["-5", "0"])
def test_fuzz_rejects_nonpositive_count(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--arity", "2", "--count", count, "jacobi"])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, ["parse", "--arity", "2", "t9*d1"])
    assert code == 2
    assert "parse error" in err


def test_deep_nesting_is_parse_error(capsys):
    text = "(" * 3000 + "t1*d1" + ")" * 3000
    code, out, err = run_cli(capsys, ["parse", "--arity", "2", text])
    assert code == 2
    assert out == ""
    assert "parse error" in err and "nested deeper" in err


def test_cached_parser_matches_fresh_processes(capsys):
    calls = [
        ["verify", "--arity", "2", "lemma2.2"],  # usage error: --k is missing
        ["bracket", "--arity", "1", "--format", "json", "t1^-1*d1", "t1*d1"],
        ["verify", "--arity", "2", "--k", "3", "--format", "json", "lemma3.3"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    fresh = [run_module(argv) for argv in calls]
    assert in_process == [(done.returncode, done.stdout) for done in fresh]
    assert [code for code, _ in in_process] == [2, 0, 0]
    assert build_parser() is build_parser()


def test_unknown_variant_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--arity", "2", "--variant", "sl2", "d1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["parse", "--arity", "2", "--variant", "wnmu", "d1"],
    ["centralize", "--arity", "1", "--variant", "wnplusplus", "t1^-1*d1"],
    ["bracket", "--arity", "2", "--variant", "wnplus", "t1*d1", "t1^-1*t2^-1*d1"],
    ["verify", "--arity", "2", "--variant", "wnmu", "lemma3.4", "t1*d1"],
])
def test_element_outside_the_variant_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not an element of --variant" in captured.err


def test_rigidity_inner_table(capsys, tmp_path):
    probes = {
        "probes": [
            {"x": "dmu", "dx": "0"},
            {"x": "t1*dmu + t2*dmu", "dx": "mu1*t1*dmu - mu2*t2*dmu"},
        ]
    }
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(probes))
    code, out, _ = run_cli(capsys, [
        "rigidity", "--arity", "2", "--box", "2", "--format", "json",
        "--probes", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "inner"
    # [d1 - d2, t_i dmu] = (+/-1) t_i dmu reproduces the table
    assert payload["recovered_a"]


def test_rigidity_inconsistent_table(capsys, tmp_path):
    probes = {
        "probes": [
            {"x": "dmu", "dx": "0"},
            {"x": "t1*dmu + t2*dmu", "dx": "t1^2*dmu"},
        ]
    }
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(probes))
    code, out, _ = run_cli(capsys, [
        "rigidity", "--arity", "2", "--box", "2", "--format", "json",
        "--probes", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "inconsistent"
    assert payload["certificate"]


def test_rigidity_missing_file_is_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["rigidity", "--arity", "2", "--probes", str(tmp_path / "nope.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("content", [
    b'{"probes": [{"x": "d\xff1", "dx": "0"}]}',  # not UTF-8
    b"[" * 200000 + b"]" * 200000,  # nested past the recursion limit
    b'{"probes": [{"x": ["d1"], "dx": "0"}]}',  # x is not a string
], ids=["non-utf8", "deep-nesting", "non-string-x"])
def test_rigidity_unreadable_probe_table_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "probes.json"
    path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["rigidity", "--arity", "2", "--probes", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "probe table" in captured.err and "Traceback" not in captured.err


def test_fuzz_deterministic(capsys):
    argv = ["fuzz", "--arity", "2", "--box", "2", "--count", "50",
            "--seed", "7", "--format", "json", "jacobi"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["passes"] == 50 and payload["failures"] == 0


def test_fuzz_closure_on_variant(capsys):
    code, out, _ = run_cli(capsys, [
        "fuzz", "--arity", "2", "--variant", "wnplus", "--box", "2",
        "--count", "60", "closure"])
    assert code == 0
    assert "60/60 pass" in out


def test_module_entry_point():
    result = run_module(["bracket", "--arity", "1", "t1^-1*d1", "t1*d1"])
    assert result.returncode == 0
    assert result.stdout.strip() == "2*d1"
