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

from wittkit import (
    AlgebraVariant,
    PointwiseMap,
    WittAlgebra,
    bracket,
    parse_element,
    parse_scalar,
    rigidity_pipeline,
)
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
    # products of sums over t and mu, divided by a scalar sum
    "parse-distribute": ["parse", "--arity", "2", "(t1 + 1)*(t1 - 1)*(mu1 + t2^-1)/(mu2 + 2)*d2"
                         " - 3*(t1 + t2)*t1^-1*d1"],
    # like terms that collide within and across products
    "parse-collide": ["parse", "--arity", "2", "--variant", "wnmu",
                      "-(t1 - mu2*t2)/(mu1 + 1)*t2^-2*dmu + (1 + t1)*(1 + t1)*dmu"],
    "bracket": ["bracket", "--arity", "2", "t1^2*t2^-1*d1", "(t1^3 + t2^3)*dmu"],
    "centralize": ["centralize", "--arity", "2", "--box", "1", "(t1 + t2)*dmu"],
    # Shapes below are ad(z)'s rows x columns on the box.  Every centralize-*
    # kernel but centralize-wnplus's is certified over F_p at a specialisation
    # point; centralize-wnplus falls back to the exact `kernel` over Q(mu).
    # ad(z) of full column rank (113x50): the kernel is empty
    "centralize-full-rank": ["centralize", "--arity", "2", "--box", "2",
                             "(t1^3 + t2^3)*dmu + 2*t1*t2^-1*d1"],
    # 32x18 with a one-dimensional kernel
    "centralize-kernel-component": ["centralize", "--arity", "2", "--box", "1",
                                    "(t1 + t2)*dmu + 3*t1*t2^-1*d1"],
    # 93x50, rank one short of full
    "centralize-mixed": ["centralize", "--arity", "2", "--box", "2",
                         "(t1^2 + t2^2)*dmu + 2*t1*t2^-1*d1"],
    # 137x98 at box 3, rank one short of full
    "centralize-large-component": ["centralize", "--arity", "2", "--box", "3",
                                   "(t1 + t2)*dmu + t1*t2^-1*d1"],
    # 96x50 with rational coefficients, which a fraction-free elimination
    # once swelled past 200 s
    "centralize-swell": ["centralize", "--arity", "2", "--box", "2",
                         "(3/7)*t2*d1 + (t1^2+t2^2)*dmu + (5/11)*t1*t2^-1*d2"],
    # rational-function coefficients on d_mu columns
    "centralize-wnmu": ["centralize", "--arity", "2", "--variant", "wnmu", "--box", "1",
                        "t1*dmu + mu1/(mu2 + 1)*t2^-1*dmu"],
    "centralize-wnplus": ["centralize", "--arity", "2", "--variant", "wnplus", "--box", "2",
                          "t1^-1*d1 + t2*d2"],
    # the d1 coefficient mu1 + 3 at t2 is an integer at every point
    "centralize-affine-coefficient": ["centralize", "--arity", "2", "--box", "3",
                                      "(t1+t2)*dmu + 3*t2*d1"],
    # z outside the box: the kernel is spanned by columns ad(z) sends to zero
    "centralize-outside-box": ["centralize", "--arity", "2", "--box", "1", "t1^5*d1"],
    # a coefficient that vanishes at every point
    "centralize-vanishing-coefficient": ["centralize", "--arity", "2", "--box", "1",
                                         "(1 - mu1)/2*t1*d2 + (t1+t2)*dmu"],
    "lemma2.2": ["verify", "--arity", "2", "--k", "2", "lemma2.2"],
    "lemma3.2": ["verify", "--arity", "2", "lemma3.2", "t1*d1 + t1*t2*d2"],
    "lemma3.3": ["verify", "--arity", "2", "--k", "3", "lemma3.3"],
    # k = -1: every direction's diagonal product collides at exponent zero
    "lemma3.3-collision": ["verify", "--arity", "2", "--k", "-1", "lemma3.3"],
    "lemma3.4": ["verify", "--arity", "2", "lemma3.4", "t1^2*t2^-1*d1 + t2*d2"],
    "lemma4.1": ["verify", "--arity", "3", "--prefix", "2", "--k", "1", "--box", "1",
                 "lemma4.1"],
    "lemma4.3": ["verify", "--arity", "3", "--prefix", "2", "--k", "2", "--box", "1",
                 "lemma4.3"],
    # full coefficients -2*mu1*c_i - 2*mu2*c_i at the collided exponent
    "lemma4.3-collision": ["verify", "--arity", "3", "--prefix", "2", "--k", "-1", "--box", "1",
                           "lemma4.3"],
    # at the default box k = 5; a smaller box is a usage error
    "lemma4.4": ["verify", "--arity", "3", "--prefix", "2", "lemma4.4", "t1*d1 + d2"],
    # 121 shifts: the tails over two free slots at box k = 5
    "lemma4.4-wide": ["verify", "--arity", "3", "--prefix", "1", "lemma4.4", "t1*d1"],
    "fuzz": ["fuzz", "--arity", "2", "--count", "20", "--seed", "3", "jacobi"],
}

# Recorded before the diagonal-anchor solve replaced the stacked one; the
# three centralize-* digests of W_n before kernel and rank had an F_p
# full-rank check (since deleted: one row-by-row echelon over Q(mu) now
# serves kernel, rank and solve), and the wnmu and wnplus ones before ad_matrix
# was built from structure constants instead of one bracket per column;
# lemma4.4 at its default box and centralize-large-component before the
# fraction-free elimination gave way to the canonical RREF pass alone.
# centralize-swell, which that elimination did not finish, is pinned from
# the RREF pass; its one basis vector is z / mu2.  The *-collision and
# lemma4.4-wide digests were recorded while the forcing verifiers still
# adjoined one unknown per shift to the scalar field.  parse-distribute
# and parse-collide were recorded while the parser still distributed
# every product into uncollected summands.  centralize-affine-coefficient,
# -outside-box and -vanishing-coefficient were recorded while every
# centralizer still went through the symbolic ad-matrix and `kernel`.
DIGESTS = {
    "bracket": "5a77a4748307d9e99ac9ac83a191e603b11502e52628276793a7b43fc95a09ac",
    "centralize": "dfb8bf8687ea6d9ca881050f861da5ea3a624cfaacff3b5328702654df0029b7",
    "centralize-affine-coefficient":
        "813abeddc394bc66b37a996ee2b8913bdf9b73ec1a0fb407450108ade48ff58a",
    "centralize-full-rank": "9f296ad12496ebd1673050cea8d661b0bc089f679bd6912650bf3b2639b31b26",
    "centralize-kernel-component":
        "3afbef0876a26bd969624e5c34eb2f9f763e1ca7ff4490f09ac8786e9350b135",
    "centralize-large-component":
        "9d04d78e16108ca8b4b3b2b7521ab45d0d6d2e88e2ad96cd85c794d2a91f3cc8",
    "centralize-mixed": "32b29042d318817c31e4c7970c5d6d775883f5db25229d866b89ff89302e1aeb",
    "centralize-outside-box":
        "34c90d92a90b862069964cee664f995d33ce64d48752a9a6f3036092c373f975",
    "centralize-swell": "ead0c496c995991d7409686719604356a3a00f13ed557778cc26a0d3baf9825f",
    "centralize-vanishing-coefficient":
        "46fef0dd4c1c3044daff9ad934d493004e5655522d0c36786f40aa087cf0617d",
    "centralize-wnmu": "c3fb507500a00b77d4c895d7ec7fe12b49db687f98529c6b5b98732c05c2e706",
    "centralize-wnplus": "9d3f5725e60c9f107d202ad2979c1ec1dbe31c3c2a8f04f22618aca971c137d1",
    "fuzz": "2bf06ad964379730fbf56b05184464a780920fe3e98ab90a7521b5bb20056fbd",
    "lemma2.2": "827213e1ef22facf8869014e61d2da8cf5f7c5d91534ae4fe0a2ce4d261f1e5e",
    "lemma3.2": "41ab86e9ca1cbab5647283b1d399413a427c959cc6f4c180af711fa674aca2bc",
    "lemma3.3": "6dd70aa70168b24d0aa20e3948684e99973e5b85b2c67afc312101e2397da08f",
    "lemma3.3-collision": "be9b0b7b29e5e22924c8a5638a71377bd01d33e7e4c5747887fe9fded2ef4ae5",
    "lemma3.4": "1bdce25671daf852adca1b673d5d9e95b2d31fc5d0912067dcb9b8e241ddec39",
    "lemma4.1": "30f4b9f3c16def65ee097554eddfac57de647573f5163e1e53b4a14d7878127a",
    "lemma4.3": "77ff043d66fd9456d24ae51d9303b7d973d303d1c45e51185a187ed3c890d3b5",
    "lemma4.3-collision": "b304dae1fc74bdf2cb65d265b68f35a1d4c04f04729f26e4e7c8d6fc2a36a23d",
    "lemma4.4": "4ab0e3cc66c43d6c2391e8dd7ffa49a4d1678895a72bd36416c801e19e248bd4",
    "lemma4.4-wide": "742d236805f4d88334303666cb92c1e39b8821602bbd20b6399111cd1b297848",
    "parse": "209813971551ea896f68154c3bd80a6ce7f859b0b9c82bff5e8d688eb7b804c3",
    "parse-collide": "28fa3af90a97ec729072aa23b8ea6a91644bc00f40671eabb8afc3d511204914",
    "parse-distribute": "eb4f9c17a1505ca577d8b75cd4b1085b531c2ffc1b798dd1f5124adaab28bc23",
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


def _run(capsys, argv, output="json"):
    code = main(argv + ["--format", output])
    return code, capsys.readouterr().out


CASES = sorted(COMMANDS) + [f"rigidity-{kind}-{name}" for name in TABLES
                            for kind in ("inner", "obstructed")]


def _case_argv(case, tmp_path):
    """(argv, exit code) of a corpus case; a rigidity case writes its table under tmp_path."""
    if case in COMMANDS:
        return COMMANDS[case], 0
    _, kind, name = case.split("-")
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(_table(name, kind == "obstructed")))
    return (["rigidity", *_variant_argv(*TABLES[name][:3]), "--probes", str(path)],
            0 if kind == "inner" else 1)


@pytest.mark.parametrize("case", CASES)
def test_corpus_output_is_pinned(capsys, tmp_path, case):
    argv, expected_code = _case_argv(case, tmp_path)
    code, out = _run(capsys, argv)
    assert code == expected_code
    if case.startswith("rigidity"):
        assert json.loads(out)["verdict"] == case.split("-")[1]
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case]


# (exit code, sha256 of the --format text stdout), recorded when the text
# lines were still built under --format json too.
TEXT_DIGESTS = {
    "bracket":
        (0, "7c2a5822dceb242783b3c74b57e3b38402345094e79715308e8506784cb9b5c8"),
    "centralize":
        (0, "df488b9a280e0abd01a9572c2f7ab5b3b7595012d1a073bd2369999f176eeec6"),
    "centralize-affine-coefficient":
        (0, "0ff649e2024348ff2e1fe92dff08de97c787c64171d5c7e6d698cb9863c38b5b"),
    "centralize-full-rank":
        (0, "61d07ed8440b8ca06b24f264eee2ddd4436065d778fdcd260f41359651a3fc26"),
    "centralize-kernel-component":
        (0, "d5a741c911961a8a41bd1c741ceef6cd14560d8ea45b2d04b6b66d994382d75e"),
    "centralize-large-component":
        (0, "84594bf4984d08efeef38209dceefc17616de63ece797afe21497d10d9d3ce0d"),
    "centralize-mixed":
        (0, "28cb25c243464db05712e8d48ac32afaebf19056235dd87cc100bd733befaa76"),
    "centralize-outside-box":
        (0, "ce58e46f05f666ae47d0461d9609551429975463d7fe31a3e14df63083a300f3"),
    "centralize-swell":
        (0, "76a5acb53d0c05af5e1b8e8912ed23fd29807f2c33b5243d111a179cf77b3144"),
    "centralize-vanishing-coefficient":
        (0, "ce7f11620c82439bb85cdca6f9cc51e1fc94243b6fe85572d8bf295590df9151"),
    "centralize-wnmu":
        (0, "e157d487b51431d02161a6ea75f44abdf2e9e22f6c9db5f02cd0678cc4969c0d"),
    "centralize-wnplus":
        (0, "3a946fb88522fddb5a55ea0de3f9ec58ead622385cd738cbde68338c99e9973c"),
    "fuzz":
        (0, "c9d8318f7e597d15393a68e3289997290088e3234b2b84dc620542cabf906f8b"),
    "lemma2.2":
        (0, "c8648785401d3d304d0adf3843d271c4e80e672f886ffc34fd8be30450eb2c7d"),
    "lemma3.2":
        (0, "504f29a8b6171d9d68c6f6f28c9e1a6db4ebaf261589e923e50b9587682e467c"),
    "lemma3.3":
        (0, "39a066e8414a7c6010d91021fb933a4698e08bccbff0c0cbaa027201389fe404"),
    "lemma3.3-collision":
        (0, "99f9af503b611584bb68e553728f9c6f8be6375a585adf5df8af8143d476f965"),
    "lemma3.4":
        (0, "ea73233e693e6e0e4b743c1c0a4c62a266b5d439b5b301d84325a4671058e38b"),
    "lemma4.1":
        (0, "4a57477205b5a1b32f3216c8670d38e1c8c4a1c390b05e998a237bed2d0890a7"),
    "lemma4.3":
        (0, "7642b815c6ec671142c4959ef0695d32ba0bbe7f9db30d69d2910ec1d3945ca3"),
    "lemma4.3-collision":
        (0, "d08fe795966a7a86b8e1bd29f372a03cc7e9051c302f8fa1e2703f5b7bcf482f"),
    "lemma4.4":
        (0, "9cfd8168982e356c96fca40f1ca72e6ccf27f4ec67b0a8c1d0ebbc49d5a72432"),
    "lemma4.4-wide":
        (0, "e19ff1c1525ed866e3c9a8e7ed0b05c45f5f15165a71c9eb94309578af2b3956"),
    "parse":
        (0, "6fe2951bde410ee623ab2bba07c30f2766f70fb1e327bcfe476c4271d45d7337"),
    "parse-collide":
        (0, "351a84a0a95896d0e8db274ddd65f12227ba66e8d99ffb98b0dab757f7137ca2"),
    "parse-distribute":
        (0, "4a7f255d5ff0605d2de4c77b05187c3da07418a8f2fc7e94fbc26b9300d8dbc2"),
    "rigidity-inner-wn":
        (0, "12c448b3a3478634128b736a76a97d68dca663b46ad7e1435584d4a1659e9af6"),
    "rigidity-obstructed-wn":
        (1, "5c8164cf32f7381ad38cd4269c0cfd7044ce9204b7f45dadb043e17465166299"),
    "rigidity-inner-wnplus":
        (0, "d8cb1d402a1702e1af0b53e7c9ce00f458ec95f76ab1c94ce9caf012853b1297"),
    "rigidity-obstructed-wnplus":
        (1, "baac1e7f7a28dcd3f24df8833d77e1d3de0bc69a9c8f9d31d994e59c2c1b5050"),
    "rigidity-inner-wnplusplus":
        (0, "c9524c3fe671c2b1d34e539952af71f2b566433ea8398962bae460509ed415a5"),
    "rigidity-obstructed-wnplusplus":
        (1, "cd3f98f3ba7c784bb0ed58f18bdca1b0fb53a927cb1b36b5080e97cbd2b69bed"),
    "rigidity-inner-wnmu":
        (0, "86b165407613c98a0130d6be461a911ad17ea052400fbbe320370153353a5e4a"),
    "rigidity-obstructed-wnmu":
        (1, "204e93b3079b80c1daa9054a8e25b9f3114d66004af5545d081fdcc5531e1810"),
    "rigidity-inner-winf":
        (0, "fca0ac42444d3dd099375bc0545664a8b0dcf529b94fc1c47f27d87e12a8df8f"),
    "rigidity-obstructed-winf":
        (1, "c9650ae88888916af17fbfb0ab5de62614d8c35bd63a18fe8e8da2551d85f70a"),
}


@pytest.mark.parametrize("case", CASES)
def test_corpus_text_output_is_pinned(capsys, tmp_path, case):
    argv, _ = _case_argv(case, tmp_path)
    code, out = _run(capsys, argv, "text")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TEXT_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_corpus_residuals_are_value_minus_bracket(name):
    # the pipeline decides a zero residual by comparison; every record still holds
    # Delta(x) - [a, x] over the field's arity.  Residuals are nonzero in obstructed
    # tables and in winf's inner one, whose nonzero residuals the span realizes.
    algebra = _algebra(*TABLES[name][:3])
    for obstructed in (False, True):
        pairs = [(parse_element(p["x"], algebra), parse_element(p["dx"], algebra))
                 for p in _table(name, obstructed)["probes"]]
        report = rigidity_pipeline(PointwiseMap(algebra, pairs), 1)
        assert [(rec.probe, rec.value) for rec in report.residuals] == pairs
        for rec in report.residuals:
            assert rec.residual == rec.value - bracket(report.recovered_a, rec.probe)
            assert rec.residual.scalar_arity() == algebra.field.arity
        nonzero = any(not rec.residual.is_zero for rec in report.residuals)
        assert nonzero == (obstructed or name == "winf")


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


# Elements of the first-n slice, with k = 2 n_x + 1 of lemmas 3.4 and 4.4.
SLICE_ELEMENTS = {
    1: [("d1", 3), ("t1^-1*d1 + 2*t1*d1", 5)],
    2: [("d2 + mu1*d1", 3), ("t1*t2^-1*d1 + t2*d2", 5)],
    3: [("d3", 3), ("t1*t3^-1*d2 - d1", 5)],
}


def _verify_grid():
    """argv of every lemma at n <= 3, m <= 4, |k| <= 4, with boxes at and one below
    each lemma's least, and refused inputs: k = 0 or 1, n = m and no --prefix for
    4.x, x outside the first-n slice, zero x.  Lemma 4.4's power-5 elements run
    where m - n <= 2, so that no case lists more than 121 shift tails."""
    grid = []
    for n in (1, 2, 3):
        wn = ["verify", "--arity", str(n)]
        for k in range(-4, 5):
            grid.append(wn + ["--k", str(k), "lemma3.3"])
            grid += [wn + ["--k", str(k), "--box", str(box), "lemma2.2"]
                     for box in (abs(k), abs(k) - 1)]
        for x, _ in SLICE_ELEMENTS[n] + [("0", None)]:
            grid.append(wn + ["lemma3.4", x])
            grid += [wn + ["lemma3.2", x] + box for box in ([], ["--box", "0"], ["--box", "-1"])]
        grid.append(wn + ["--k", "2", "lemma4.1"])
        same = ["verify", "--arity", str(n), "--prefix", str(n)]
        grid += [same + ["--k", "2", "lemma4.1"], same + ["--k", "2", "lemma4.3"],
                 same + ["lemma4.4", SLICE_ELEMENTS[n][0][0]]]
        for m in range(n + 1, 5):
            winf = ["verify", "--arity", str(m), "--prefix", str(n)]
            for k in range(-4, 5):
                grid += [winf + ["--k", str(k), "--box", str(box), "lemma4.1"]
                         for box in (1, 0, -1)]
                grid += [winf + ["--k", str(k), "--box", str(box), "lemma4.3"]
                         for box in (1, 0)]
            for x, k in SLICE_ELEMENTS[n]:
                if k == 3 or m - n <= 2:
                    grid += [winf + ["lemma4.4", x] + box
                             for box in ([], ["--box", str(k)], ["--box", str(k - 1)])]
            grid += [winf + ["lemma4.4", x] for x in ("0", f"t{m}*d1", f"d{m}")]
    return grid


def test_verify_grid_output_is_pinned(capsys):
    # Pinned before the W_n lemmas 2.2, 3.3 and 3.4 ran as lemmas 4.1, 4.3
    # and 4.4 at m = n: one sha256 over (argv, exit code, stdout, stderr).
    digest, codes = hashlib.sha256(), []
    for argv in _verify_grid():
        argv = argv + ["--format", "json"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        digest.update(json.dumps([argv, code, out, err]).encode())
        codes.append(code)
    assert (len(codes), codes.count(0), codes.count(2)) == (450, 223, 227)
    assert digest.hexdigest() == "62301c3bf44d1fe8a16c1ad9185fec9665200f20169d316c9caefe8322577340"
