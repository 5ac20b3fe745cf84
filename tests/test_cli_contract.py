"""The CLI's exit-code contract on random argv: 0 pass, 1 check failed, 2 usage error.

Every subcommand is driven with random flags, elements from a fixed pool
of valid and malformed strings and random probe files.  `main` must
return or raise `SystemExit` with one of those three codes; any other
exception escaping it breaks the contract.  Exponents stay at most 2 and
the box at most 2, so no draw asks for a large degree box.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.cli import main

VALID = [
    "t1*d1", "d1", "dmu", "0", "t1^-1*d1 + 2*d1", "t1^2*dmu", "(t1 + t2)*dmu",
    "t1*t2^-1*d2 - 1/2*d1", "mu1*t1*d1", "mu1/(mu2 + 1)*t2^-1*dmu", "t3*d3 + t1*d1",
    "t2^2*d2", "t1^-2*t2*dmu",
]
# malformed, or outside every arity drawn
MALFORMED = ["", "(", "t1^^2*d1", "t9*d1", "d7", "1/0*d1", "t1*d1 +", "x", "mu9*d1"]
VARIANTS = ["sl2", "WN_MU", "wn", "wnplus", "wnplusplus", "wnmu", "winf"]
LEMMAS = ["lemma2.2", "lemma3.2", "lemma3.3", "lemma3.4", "lemma4.1", "lemma4.3", "lemma4.4"]
LAWS = ["antisymmetry", "bilinearity", "jacobi", "closure", "monomial", "commutator"]
JUNK = ["--bogus", "-q", "--box", "--k", "--format", "xml", "--help"]
# the last one is written as latin-1, so the file is not UTF-8
BROKEN_TABLES = ["{", "[]", '{"probes": 3}', '{"probes": [{"x": 1, "dx": "0"}]}',
                 '{"probes": [{"x": "dmu"}]}', "\xff\xfe"]

# valid elements twice as often as malformed ones, so that calls get past parsing
elements = st.one_of(st.sampled_from(VALID), st.sampled_from(VALID),
                     st.sampled_from(MALFORMED))


@st.composite
def argvs(draw):
    """(argv, probe table text) for one random call; the table is None unless rigidity."""
    def option(flag, values, often=False):
        present = draw(st.sampled_from([True, True, True, False] if often else [False, True]))
        return [flag, str(draw(values))] if present else []

    command = draw(st.sampled_from(
        ["parse", "bracket", "centralize", "verify", "rigidity", "fuzz"]))
    arity = draw(st.integers(1, 3))
    argv = [command, "--arity", str(arity)]
    prefix = option("--prefix", st.integers(1, 3))
    argv += prefix + option("--variant", st.sampled_from(VARIANTS))
    if command not in ("parse", "bracket"):  # the others read --box
        argv += option("--box", st.integers(-1, 2))
    argv += option("--format", st.sampled_from(["text", "json"]))
    table = None
    if command in ("parse", "centralize"):
        argv.append(draw(elements))
    elif command == "bracket":
        argv += [draw(elements), draw(elements)]
    elif command == "verify":
        argv.append(draw(st.sampled_from(LEMMAS)))
        argv += option("--k", st.integers(-3, 3), often=True)
        argv += option("--x", elements, often=True)
    elif command == "fuzz":
        argv.append(draw(st.sampled_from(LAWS)))
        argv += option("--count", st.integers(-1, 3), often=True)
        argv += option("--seed", st.integers(0, 9))
    elif draw(st.sampled_from([False, True])):
        table = draw(st.sampled_from(BROKEN_TABLES))
    else:
        n = int(prefix[1]) if prefix else arity
        anchors = ["dmu", f"({' + '.join(f't{i}' for i in range(1, n + 1))})*dmu"]
        xs = anchors[:draw(st.sampled_from([2, 2, 1, 0]))]
        xs += draw(st.lists(elements, max_size=2))
        table = json.dumps({"probes": [{"x": x, "dx": draw(elements)} for x in xs]})
    return argv + draw(st.sampled_from([[]] * 9 + [[flag] for flag in JUNK])), table


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argvs())
def test_cli_exits_only_with_contract_codes(call):
    argv, table = call
    if table is not None:
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "probes.json")
            with open(path, "w", encoding="latin-1") as handle:
                handle.write(table)
            argv = [*argv, "--probes", path]
            code = _exit_code(argv)
    else:
        code = _exit_code(argv)
    assert code in (0, 1, 2), (argv, code)
