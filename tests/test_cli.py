"""CLI behaviors: exit codes, deterministic JSON, probe files."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittkit
from wittkit import cli
from wittkit.cli import _LAWS, build_parser, main


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


def test_parse_accepts_sign_runs_and_long_products(capsys):
    # a run of signs may open any term
    code, out, _ = run_cli(capsys, ["parse", "--arity", "2", "d1 + -d2 - +-t1*d1"])
    assert (code, out.strip()) == (0, "d1 - d2 + t1*d1")
    # 2^40 distributed summands, 41 collected terms
    code, out, _ = run_cli(capsys, ["parse", "--arity", "1", "(t1 + 1)*" * 40 + "d1"])
    terms = out.strip().split(" + ")
    assert code == 0 and len(terms) == 41
    assert terms[:3] == ["d1", "40*t1*d1", "780*t1^2*d1"] and terms[-1] == "t1^40*d1"


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


def test_element_after_a_later_option_is_refused(capsys):
    # argparse binds the optional element when it meets the lemma name, so an
    # element placed after a later option is left over: it goes right after the
    # lemma name, or behind --x
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--arity", "2", "lemma3.2", "--box", "2", "t1*d1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: t1*d1" in captured.err
    assert "Traceback" not in captured.err
    for argv in (["verify", "--arity", "2", "lemma3.2", "t1*d1", "--box", "2"],
                 ["verify", "--arity", "2", "lemma3.2", "--box", "2", "--x", "t1*d1"]):
        assert run_cli(capsys, argv)[0] == 0


def test_verify_help_says_where_an_element_goes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "lemma4.4, right after the lemma name" in text
    assert "usable anywhere on the line" in text


# argv that reach each subcommand's parser directly, and argv that the top-level
# parser still takes: an empty one, an option first, an unknown name
ARGV_TABLE = [
    [],
    ["-h"],
    ["--help", "parse"],
    ["--arity", "1", "parse", "d1"],
    ["--", "parse", "--arity", "1", "d1"],
    ["frobnicate", "--arity", "1"],
    ["Parse", "--arity", "1", "d1"],
    ["par", "--arity", "1", "d1"],
    ["parse", "--arity", "2", "2*t1*d1 + d2 - t1*d1"],
    ["parse", "--arity", "2", "t9*d1"],
    ["parse", "--arity", "1", "--", "d1"],
    ["parse", "--", "--arity", "1", "d1"],
    ["parse", "--arity", "1", "d1", "--"],
    ["parse", "--arity", "1", "--arity", "2", "t2*d1"],
    ["parse", "--arity", "1", "--bogus", "d1"],
    ["parse", "--arity", "1", "d1", "d1"],
    ["parse", "--arity", "1", "d1", "--bogus=3", "extra"],
    ["parse", "--arity", "x", "d1"],
    ["parse", "--arity", "1", "--format", "xml", "d1"],
    ["parse", "--arity", "1", "--format=json", "d1"],
    ["parse", "--help"],
    ["parse", "--arity", "1", "--he"],
    ["parse"],
    ["bracket", "--arity", "1", "t1^-1*d1", "t1*d1"],
    ["bracket", "--arity", "1", "t1*d1"],
    ["bracket", "--arity", "1", "--x", "d1", "d1", "d1"],
    ["centralize", "--arity", "1", "--box", "1", "t1*d1"],
    ["centralize", "--arity", "1", "--variant", "wnplusplus", "t1^-1*d1"],
    ["verify", "-h"],
    ["verify"],
    ["verify", "--arity", "2", "lemma2.2", "--k", "1", "--box", "1"],
    ["verify", "--ari", "2", "lemma2.2", "--k=-1", "--box", "2", "--format", "json"],
    ["verify", "--arity", "2", "lemma2.2", "--k", "-1"],
    ["verify", "--arity", "2", "lemma2.2"],
    ["verify", "--arity", "2", "lemma9.9"],
    ["verify", "--arity", "2", "lemma3.2", "t1*d1", "--box", "2"],
    ["verify", "--arity", "2", "lemma3.2", "--box", "2", "t1*d1"],
    ["verify", "--arity", "2", "--x", "t1*d1", "lemma3.2"],
    ["verify", "--arity", "2", "lemma3.3", "--k", "3", "--k", "2"],
    ["verify", "--arity", "1", "lemma2.2", "--k", "1", "--zzz"],
    ["verify", "--arity", "3", "--prefix", "2", "--k", "1", "--box", "1", "lemma4.1"],
    ["rigidity", "--arity", "1", "--probes", "no-such-probes.json"],
    ["rigidity", "--arity", "1"],
    ["fuzz", "--arity", "1", "--count", "3", "antisymmetry"],
    ["fuzz", "--arity", "1", "--count", "0", "jacobi"],
    ["fuzz", "--arity", "1", "--cou", "2", "--seed", "4", "closure", "extra"],
    ["fuzz", "--help", "--arity", "1"],
]


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=" ".join)
def test_one_parse_pass_matches_parse_args(capsys, reference_main, argv):
    # exit code, stdout and stderr as when the top-level parser parsed every argv
    def outcome(run):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert outcome(main) == outcome(reference_main)


@pytest.mark.parametrize("argv", [
    ["verify", "--arity", "1", "lemma2.2", "--k", "1", "--x", "0"],
    ["verify", "--arity", "2", "--box", "-1", "lemma3.3", "--k", "3"],
    ["verify", "--arity", "2", "--k", "5", "lemma3.4", "t1*d1"],
    ["parse", "--arity", "2", "--seed", "3", "d1"],
    ["bracket", "--arity", "1", "--box", "1", "d1", "d1"],
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("does not take" in captured.err if argv[0] == "verify"
            else "unrecognized arguments" in captured.err)


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
    ["verify", "--arity", "3", "lemma2.2", "--k", "1000"],
    ["centralize", "--arity", "2", "--box", "1000", "t1*d1"],
    ["fuzz", "--arity", "3", "--box", "500", "closure"]])
def test_oversized_box_is_usage_error_before_enumeration(capsys, monkeypatch, argv):
    # W_3 at lemma 2.2's default box 1002 has 3 * 2005^3 columns: counted, never built
    def enumerate_window(variant, box):
        raise AssertionError(f"{variant} box {box} was enumerated")

    monkeypatch.setattr(wittkit.witt, "iter_basis_pairs", enumerate_window)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "columns, more than the 200000 allowed" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--arity", "3", "--prefix", "1", "--k", "2", "--box", "1000", "lemma4.3"],
    ["verify", "--arity", "4", "--prefix", "2", "lemma4.4", "t1^1000*d1"]])
def test_oversized_shift_family_is_usage_error_before_listing(capsys, monkeypatch, argv):
    # 3 * 2001^2 and, at k = 2003, 3 * 4007^2 elements: counted, never listed
    def list_tails(*args, **kwargs):
        raise AssertionError("shift tails were listed")

    monkeypatch.setattr(wittkit.centralizer, "product", list_tails)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "elements, more than the 200000 allowed" in err


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


@pytest.mark.parametrize("argv", [
    pytest.param(["--k", "2", "--variant", "wnplusplus", "lemma2.2"], id="lemma2.2"),
    pytest.param(["--k", "2", "--variant", "wnplusplus", "lemma3.3"], id="lemma3.3"),
    # t1*d1 is no element of wnmu, but the variant is refused before parsing
    pytest.param(["--variant", "wnmu", "lemma3.4", "t1*d1"], id="lemma3.4"),
    pytest.param(["--variant", "wnmu", "lemma3.4", "t1*dmu"], id="lemma3.4-member"),
    pytest.param(["--variant", "wnplus", "lemma3.2", "t1*d1"], id="lemma3.2"),
    pytest.param(["--variant", "winf", "--prefix", "1", "lemma3.4", "t1*d1"], id="lemma3.4-winf"),
])
def test_verify_wn_only_lemma_rejects_variant(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--arity", "2", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    variant = argv[argv.index("--variant") + 1]
    assert f"--variant {variant} is not supported" in captured.err


@pytest.mark.parametrize("argv", [
    ["--k", "2", "--variant", "wnmu", "lemma4.1"],
    ["--k", "2", "--variant", "wnplusplus", "lemma4.3"],
    ["--variant", "wnplus", "lemma4.4", "t1*d1"],
])
def test_verify_winf_lemma_rejects_other_variants(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--arity", "2", "--prefix", "1", *argv])
    assert exc.value.code == 2
    assert "is not supported" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--k", "1", "--box", "1", "lemma4.1"],
    ["--k", "2", "--box", "1", "lemma4.3"],
    ["lemma4.4", "t1*d1"],
])
def test_verify_winf_lemma_accepts_winf(capsys, argv):
    outputs = []
    for variant in ([], ["--variant", "winf"], ["--variant", "wn"]):
        code, out, _ = run_cli(capsys, ["verify", "--arity", "2", "--prefix", "1", *variant,
                                        *argv, "--format", "json"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_accepts_winftrunc_as_winf(capsys):
    outputs = []
    for variant in ("winf", "winftrunc", "W-INF-TRUNC"):
        code, out, err = run_cli(capsys, ["verify", "--arity", "2", "--prefix", "1",
                                          "--variant", variant, "lemma4.1", "--k", "1",
                                          "--box", "1", "--format", "json"])
        assert code == 0
        outputs.append((out, err))
    assert outputs[0] == outputs[1] == outputs[2]
    for variant in ("winftrunc", "W-INF-TRUNC"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--arity", "2", "--variant", variant, "lemma2.2", "--k", "1"])
        assert exc.value.code == 2
        assert f"--variant {variant} is not supported" in capsys.readouterr().err


@pytest.mark.parametrize("lemma", sorted(cli._LEMMAS))
def test_lemma_table_names_each_verifier_and_its_parameters(lemma):
    # prefix is the verifier's n; x, k and box are named as the verifier names them
    verifier, takes = cli._LEMMAS[lemma]
    assert verifier == "verify_lemma_" + lemma[len("lemma"):].replace(".", "_")
    parameters = list(inspect.signature(getattr(cli, verifier)).parameters)
    assert ["n" if name == "prefix" else name for name in takes] == parameters


def test_verify_calls_the_verifier_bound_to_its_name(capsys, monkeypatch):
    # perfbench's layer trace wraps a verifier by rebinding its name in this module
    calls = []
    verifier = cli.verify_lemma_2_2
    monkeypatch.setattr(cli, "verify_lemma_2_2",
                        lambda *args: calls.append(args) or verifier(*args))
    assert main(["verify", "--arity", "1", "--k", "1", "lemma2.2"]) == 0
    assert calls == [(1, 1)]


def test_lemma_table_keys_are_the_verify_choices():
    verify = cli._parsers()[1]["verify"]
    lemma = next(action for action in verify._actions if action.dest == "lemma")
    assert list(lemma.choices) == list(cli._LEMMAS)


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


@pytest.mark.parametrize("text", ["t\u2081*d1", "t1^\u00b2*d1", "\u00b2*d1"])
def test_non_decimal_digits_are_parse_errors(capsys, text):
    # str.isdigit() accepts these digits and int() rejects them: exit 2, not 3
    code, out, err = run_cli(capsys, ["parse", "--arity", "2", text])
    assert (code, out) == (2, "")
    assert "parse error" in err and "internal error" not in err


def test_decimal_digits_of_any_script_parse(capsys):
    code, out, _ = run_cli(capsys, ["parse", "--arity", "2", "\u0663*d1"])
    assert (code, out.strip()) == (0, "3*d1")


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


def test_rigidity_probe_outside_the_variant_is_usage_error(capsys, tmp_path):
    # d1 parses in the rank-2 algebra but is no element of wnmu, which holds d_mu alone
    probes = {"probes": [{"x": "dmu", "dx": "0"}, {"x": "t1*dmu + t2*dmu", "dx": "0"},
                         {"x": "d1", "dx": "0"}]}
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(probes))
    code, out, err = run_cli(capsys, [
        "rigidity", "--arity", "2", "--variant", "wnmu", "--box", "1", "--probes", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: probe pair outside the variant: d1\n"


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
    # every law, the monomial-rule oracle among them, under the one test name
    for law in _LAWS:
        argv = ["fuzz", "--arity", "2", "--box", "2", "--count", "50",
                "--seed", "7", "--format", "json", law]
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second
        assert first[0] == 0
        payload = json.loads(first[1])
        assert (payload["law"], payload["passes"], payload["failures"]) == (law, 50, 0)


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


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    # a defect (here a TypeError out of the handler) is neither a failed check (1)
    # nor a usage error (2)
    def slip(args, parser):
        raise TypeError("'Fraction' object cannot be interpreted as an integer")

    monkeypatch.setattr(wittkit.cli, "_algebra_from", slip)
    code, out, err = run_cli(capsys, ["parse", "--arity", "1", "d1"])
    assert code == 3 and out == ""
    assert err.strip() == ("internal error: TypeError: "
                           "'Fraction' object cannot be interpreted as an integer")
    assert "Traceback" not in err
