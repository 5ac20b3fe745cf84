"""A fixed corpus of CLI invocations whose JSON output is pinned by digest.

Every subcommand runs on fixed arguments, and `rigidity` runs on an
inner and an obstructed probe table of each variant at box 1.  The
sha256 of each `--format json` stdout must equal the digest recorded
when the corpus was introduced, so any change to a report, down to one
byte, shows up here.  Inconsistent tables are checked by the certificate
property u A = 0, u . b != 0 instead: any left-kernel vector that
separates b is a valid certificate, so its exact weights are not pinned.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from wittkit import AlgebraVariant, WittAlgebra, bracket, parse_element, parse_scalar
from wittkit.cli import main

# (variant, arity, prefix, b, extra probes, obstruction added to the last probe's value)
TABLES = {
    "wn": ("wn", 2, 2, "2*t1*d2 - 1/2*t2^-1*d1",
           ["t1*t2*d1", "t2^-1*d2 + 3*d1"], "t1*d1"),
    "wnplus": ("wnplus", 2, 2, "t1^-1*d1 + 2*t1*t2*d2",
               ["t2*d1", "t1^2*d2 - d1"], "t2*d2"),
    "wnplusplus": ("wnplusplus", 2, 2, "t1*d2 - 3*t2*d1",
                   ["t1*t2*d1", "t2*d2 + d1"], "t1*d1"),
    "wnmu": ("wnmu", 2, 2, "t1*dmu - 2*t2^-1*dmu",
             ["t1*t2*dmu", "t1^-1*dmu"], "t2*dmu"),
    "winf": ("winf", 3, 2, "t1*d2 + 2*t3*d3",
             ["t1*t3*d1", "t3^-1*d3 + t2*d1"], "t1*d1"),
}

COMMANDS = {
    "parse": ["parse", "--arity", "2", "(t1 + mu2*t2^-1)*dmu - 1/3*t1*d2"],
    "bracket": ["bracket", "--arity", "2", "t1^2*t2^-1*d1", "(t1^3 + t2^3)*dmu"],
    "centralize": ["centralize", "--arity", "2", "--box", "1", "(t1 + t2)*dmu"],
    # every component of full column rank
    "centralize-full-rank": ["centralize", "--arity", "2", "--box", "2",
                             "(t1^3 + t2^3)*dmu + 2*t1*t2^-1*d1"],
    # one 18-column component with a kernel
    "centralize-kernel-component": ["centralize", "--arity", "2", "--box", "1",
                                    "(t1 + t2)*dmu + 3*t1*t2^-1*d1"],
    # full-rank components beside one with a kernel
    "centralize-mixed": ["centralize", "--arity", "2", "--box", "2",
                         "(t1^2 + t2^2)*dmu + 2*t1*t2^-1*d1"],
    # one 98-column component with a kernel
    "centralize-large-component": ["centralize", "--arity", "2", "--box", "3",
                                   "(t1 + t2)*dmu + t1*t2^-1*d1"],
    # one 96x50 component whose fraction-free elimination swelled past 200 s
    "centralize-swell": ["centralize", "--arity", "2", "--box", "2",
                         "(3/7)*t2*d1 + (t1^2+t2^2)*dmu + (5/11)*t1*t2^-1*d2"],
    # rational-function coefficients on d_mu columns
    "centralize-wnmu": ["centralize", "--arity", "2", "--variant", "wnmu", "--box", "1",
                        "t1*dmu + mu1/(mu2 + 1)*t2^-1*dmu"],
    "centralize-wnplus": ["centralize", "--arity", "2", "--variant", "wnplus", "--box", "2",
                          "t1^-1*d1 + t2*d2"],
    "lemma2.2": ["verify", "--arity", "2", "--k", "2", "lemma2.2"],
    "lemma3.2": ["verify", "--arity", "2", "lemma3.2", "t1*d1 + t1*t2*d2"],
    "lemma3.3": ["verify", "--arity", "2", "--k", "3", "lemma3.3"],
    "lemma3.4": ["verify", "--arity", "2", "lemma3.4", "t1^2*t2^-1*d1 + t2*d2"],
    "lemma4.1": ["verify", "--arity", "3", "--prefix", "2", "--k", "1", "--box", "1",
                 "lemma4.1"],
    "lemma4.3": ["verify", "--arity", "3", "--prefix", "2", "--k", "2", "--box", "1",
                 "lemma4.3"],
    # at the default box k = 5; a smaller box is a usage error
    "lemma4.4": ["verify", "--arity", "3", "--prefix", "2", "lemma4.4", "t1*d1 + d2"],
    "fuzz": ["fuzz", "--arity", "2", "--count", "20", "--seed", "3", "jacobi"],
}

# Recorded before the diagonal-anchor solve replaced the stacked one; the
# three centralize-* digests of W_n before the full-rank check mod p was
# added to kernel and rank, and the wnmu and wnplus ones before ad_matrix
# was built from structure constants instead of one bracket per column;
# lemma4.4 at its default box and centralize-large-component before the
# fraction-free elimination gave way to the canonical RREF pass alone.
# centralize-swell, which that elimination did not finish, is pinned from
# the RREF pass; its one basis vector is z / mu2.
DIGESTS = {
    "bracket": "5a77a4748307d9e99ac9ac83a191e603b11502e52628276793a7b43fc95a09ac",
    "centralize": "dfb8bf8687ea6d9ca881050f861da5ea3a624cfaacff3b5328702654df0029b7",
    "centralize-full-rank": "9f296ad12496ebd1673050cea8d661b0bc089f679bd6912650bf3b2639b31b26",
    "centralize-kernel-component":
        "3afbef0876a26bd969624e5c34eb2f9f763e1ca7ff4490f09ac8786e9350b135",
    "centralize-large-component":
        "9d04d78e16108ca8b4b3b2b7521ab45d0d6d2e88e2ad96cd85c794d2a91f3cc8",
    "centralize-mixed": "32b29042d318817c31e4c7970c5d6d775883f5db25229d866b89ff89302e1aeb",
    "centralize-swell": "ead0c496c995991d7409686719604356a3a00f13ed557778cc26a0d3baf9825f",
    "centralize-wnmu": "c3fb507500a00b77d4c895d7ec7fe12b49db687f98529c6b5b98732c05c2e706",
    "centralize-wnplus": "9d3f5725e60c9f107d202ad2979c1ec1dbe31c3c2a8f04f22618aca971c137d1",
    "fuzz": "2bf06ad964379730fbf56b05184464a780920fe3e98ab90a7521b5bb20056fbd",
    "lemma2.2": "827213e1ef22facf8869014e61d2da8cf5f7c5d91534ae4fe0a2ce4d261f1e5e",
    "lemma3.2": "41ab86e9ca1cbab5647283b1d399413a427c959cc6f4c180af711fa674aca2bc",
    "lemma3.3": "6dd70aa70168b24d0aa20e3948684e99973e5b85b2c67afc312101e2397da08f",
    "lemma3.4": "1bdce25671daf852adca1b673d5d9e95b2d31fc5d0912067dcb9b8e241ddec39",
    "lemma4.1": "30f4b9f3c16def65ee097554eddfac57de647573f5163e1e53b4a14d7878127a",
    "lemma4.3": "77ff043d66fd9456d24ae51d9303b7d973d303d1c45e51185a187ed3c890d3b5",
    "lemma4.4": "4ab0e3cc66c43d6c2391e8dd7ffa49a4d1678895a72bd36416c801e19e248bd4",
    "parse": "209813971551ea896f68154c3bd80a6ce7f859b0b9c82bff5e8d688eb7b804c3",
    "rigidity-inner-winf": "8f0a54133d0bd982dd6304cdec73093168bccf843ff0a570b0e02249a42ff716",
    "rigidity-inner-wn": "568d65e3230fbe4cf5d83e58705d2ff4e2d1de2de299a46bfe93bfbb632e5369",
    "rigidity-inner-wnmu": "52398cb7a7c5cd4c4c8c421b99f34cf97f44beffe0b1b78f13e7cacebf9ff376",
    "rigidity-inner-wnplus": "6196f05e7ef3e64adde2f1e6558d5658f0769840970f0820904c5df1f1818d44",
    "rigidity-inner-wnplusplus": "b58778f4b1a9d6a9e81bc473af30a23f6e028e0f8e0de24664cb03834c4b3fbe",
    "rigidity-obstructed-winf": "5d3b841b968c55ce6546284db4d10c6ecb0c90e3af28a2e1874b39adca29ae73",
    "rigidity-obstructed-wn": "0707b85ee78911e01228eec48c484173356dc0907906e59fcb0b1e35f9d3e0df",
    "rigidity-obstructed-wnmu": "a2c2c9211f68ad956a4bc7bcf02d3d48bbcc792993de1e8e9e54faa4bba54654",
    "rigidity-obstructed-wnplus": "afbbe70c08db118581453fa10444c32c75fb8deb23ae65d0d3bda42e00afdb52",
    "rigidity-obstructed-wnplusplus": "cf305c97e4d591c853054ed28a23ddc441da42b7de4bdbb51c0ea0838d097d0c",
}


def _algebra(variant, arity, prefix):
    factory = getattr(AlgebraVariant, variant)
    return WittAlgebra(factory(prefix, arity) if variant == "winf" else factory(arity))


def _variant_argv(variant, arity, prefix):
    argv = ["--arity", str(arity), "--variant", variant, "--box", "1"]
    return argv + (["--prefix", str(prefix)] if variant == "winf" else [])


def _table(name, obstructed):
    """Anchors, the degree-2 power sum and two probes, with Delta(x) = [b, x]."""
    variant, arity, prefix, b_text, extra, obstruction = TABLES[name]
    algebra = _algebra(variant, arity, prefix)
    block = [f"t{i}" for i in range(1, prefix + 1)]
    probes = ["dmu", f"({' + '.join(block)})*dmu",
              f"({' + '.join(t + '^2' for t in block)})*dmu"] + extra
    b = parse_element(b_text, algebra)
    values = [bracket(b, parse_element(x, algebra)) for x in probes]
    if obstructed:
        values[-1] = values[-1] + parse_element(obstruction, algebra)
    return {"probes": [{"x": x, "dx": algebra.format(v)} for x, v in zip(probes, values)]}


def _run(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, capsys.readouterr().out


CASES = sorted(COMMANDS) + [f"rigidity-{kind}-{name}" for name in TABLES
                            for kind in ("inner", "obstructed")]


@pytest.mark.parametrize("case", CASES)
def test_corpus_output_is_pinned(capsys, tmp_path, case):
    if case in COMMANDS:
        argv = COMMANDS[case]
        expected_code = 0
    else:
        _, kind, name = case.split("-")
        path = tmp_path / "probes.json"
        path.write_text(json.dumps(_table(name, kind == "obstructed")))
        argv = ["rigidity", *_variant_argv(*TABLES[name][:3]), "--probes", str(path)]
        expected_code = 0 if kind == "inner" else 1
    code, out = _run(capsys, argv)
    assert code == expected_code
    if case.startswith("rigidity"):
        assert json.loads(out)["verdict"] == kind
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case]


# name -> (table, perturbed anchor, term added to its value)
INCONSISTENT = {
    "wn-cartan-in-dmu": ("wn", 0, "2*d1"),
    "wn-out-of-box": ("wn", 1, "t1^3*d2"),
    "wnplusplus-cartan-in-dmu": ("wnplusplus", 0, "-d2"),
    "winf-zero-eigenvalue": ("winf", 0, "t3*d1"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_corpus_inconsistent_certificate(capsys, tmp_path, certificate_holds, case):
    name, anchor, extra = INCONSISTENT[case]
    algebra = _algebra(*TABLES[name][:3])
    table = _table(name, obstructed=False)
    value = parse_element(table["probes"][anchor]["dx"], algebra) + parse_element(extra, algebra)
    table["probes"][anchor]["dx"] = algebra.format(value)
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(table))
    code, out = _run(capsys, ["rigidity", *_variant_argv(*TABLES[name][:3]),
                              "--probes", str(path)])
    report = json.loads(out)
    assert (code, report["verdict"]) == (1, "inconsistent")
    constraints = [(parse_element(p["x"], algebra), parse_element(p["dx"], algebra))
                   for p in table["probes"][:2]]
    rows = []
    for entry in report["certificate"]:
        (gamma, cartan), = parse_element(entry["monomial"], algebra).support.items()
        j = next(i for i, c in enumerate(cartan.coeffs) if not c.is_zero)
        rows.append(((entry["constraint"], gamma, j), parse_scalar(entry["weight"], algebra.field)))
    assert certificate_holds(algebra, constraints, 1, rows) is None
