"""Seeded job lists for the two workloads.

A job is one `wittkit` CLI invocation (argv without the program name)
plus what the output checks need to know about it.  The seed decides
the order the jobs run in and, where a workload has random inputs
(probe tables, centralizer coefficients), draws them; the shape and
number of inputs are fixed, so every seed asks for about the same work.
The lemma grid has no random inputs: its cells are fixed.

`rigidity-centralize` holds two kinds of job, rigidity tables (the
linear solve with certificates) and centralizers (the homogeneous
kernel), in one workload: on a host whose speed drifts by 20% within a
minute, two long runs give steadier numbers than three short ones in
the same benchmark time.  The per-layer metrics keep the kinds apart.

Inputs are generated as text by this module, never by wittkit's own
random sampler, so a change to the library cannot change what the
benchmark asks it.  Probe-table values Delta(x) = [b, x] are computed
with the library's `bracket`, which the checks treat as the oracle.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("lemma-grid", "rigidity-centralize")

# Algebras each workload's fresh process builds during set-up, as
# (variant, arity, prefix) triples.
ALGEBRAS: Dict[str, List[Tuple[str, int, int]]] = {
    "lemma-grid": [("wn", 1, 1), ("wn", 2, 2), ("wn", 3, 3),
                   ("winf", 2, 1), ("winf", 3, 1), ("winf", 3, 2)],
    "rigidity-centralize": [("wn", 2, 2), ("wnplusplus", 2, 2), ("wnmu", 2, 2),
                            ("winf", 3, 2)],
}

# A pass over a workload's jobs is kept to a few seconds, so that a run
# holds 13 to 30 passes: each job's time is its fastest pass, and on a
# shared host the sum of the fastest of eight passes moved by a fifth
# between stretches of eight, the fastest of twenty by a few per cent.

# The criterion-2 grid of the acceptance suite: lemma 2.2 at the default
# box |k| + 2, the same in every run.  Its n = 3 cells other than k = -1
# (1.4 s to 5 s each) are left out for the pass length above.
CRITERION_2_K = (-3, -1, 1, 2, 4)
CRITERION_2_LEFT_OUT = {(3, -3), (3, 1), (3, 2), (3, 4)}

# Extra lemma 2.2 cells (n, k, box), none a criterion-2 cell, so that no
# two jobs share an input: n = 2 at boxes 2 to 5 and n = 3 at box 1.
# They are chosen so that the median job and the tail job each sit in
# the middle of a run of jobs of like cost (the box-3 cells and the
# 38-50 ms cells), not at the edge of a gap between costs, where one
# job's own noise would move the metric.
LEMMA_2_2_EXTRA = ([(2, k, 2) for k in (-2, -1, 1, 2)] + [(2, k, 3) for k in (-3, -2, 2, 3)]
                   + [(2, k, 4) for k in (-4, -1, 1, 4)] + [(2, k, 5) for k in (-5, 5)]
                   + [(3, k, 1) for k in (-1, 1)])

# Lemma 4.1 cells (n, m, k, box) in winf; |k| > box leaves out the shift family.
LEMMA_4_1_CELLS = [(1, 2, -1, 1), (1, 2, 2, 2), (1, 2, -4, 3),
                   (1, 3, 1, 1), (1, 3, -2, 2), (2, 3, -1, 1), (2, 3, 2, 2)]

# Rigidity strata: (kind, variant, arity, prefix, box, tables per run).
RIGIDITY_STRATA = [
    ("inner", "wn", 2, 2, 2, 2),
    ("inner", "wn", 2, 2, 1, 1),
    ("inner", "wnplusplus", 2, 2, 2, 2),
    ("inner", "wnmu", 2, 2, 1, 1),
    ("inner", "winf", 3, 2, 1, 2),
    ("obstructed", "wn", 2, 2, 1, 1),
    ("inconsistent", "wn", 2, 2, 1, 1),
]
RANDOM_PROBES = 10
# Terms in b and in each random probe; fixed, so that seeds cost alike.
TERMS = 2

# Centralizer jobs in W2: z = (power sum)*dmu plus one or two monomials.
# A table's cost moves by a quarter with its seeded coefficients, and
# so does that of most centralizers with a seeded coefficient inside the
# power sum or at box 2.  The median and the tail job are each one
# job's time, so each must fall among jobs whose cost the seed does not
# move, with like jobs on both sides: the median among the eight
# (t1 + t2)*dmu box-1 cases, which have 19 cheaper jobs below them and
# 19 dearer ones above; the tail among the six fixed box-2 cases
# (t1^3 + t2^3)*dmu +- k*t1*t2^-1*d1, which have seven dearer jobs above.
# Fixed cases, (box, z), the same in every run: the ROADMAP's 98-column
# box-3 case (2 s) taken at box 2, where it is one 50-column component
# (0.4 s), and the six tail cases.
CENTRALIZE_FIXED = ([(2, "(t1 + t2)*dmu + t1*t2^-1*d1")]
                    + [(2, f"(t1^3 + t2^3)*dmu {sign} {k}*t1*t2^-1*d1")
                       for k in (2, 3, 4) for sign in "+-"])
# Seeded cases: (box, template, jobs per run).  Slots {c1}, {c2} take
# seeded nonzero rationals.
CENTRALIZE_TEMPLATES = [
    # components of 14 and 12 columns: both sides of the engine switch
    (2, "(t1^2 + t2^2)*dmu + {c1}*t1*t2^-1*d1", 1),
    # the swell-prone shape, kept at box 1 (box 2 does not finish)
    (1, "{c1}*t2*d1 + (t1^2 + t2^2)*dmu + {c2}*t1*t2^-1*d2", 1),
    # one 18-column component; the median job is one of these
    (1, "(t1 + t2)*dmu + {c1}*t1*t2^-1*d1", 8),
    # small components only; cheaper than all other jobs
    (1, "(t1^3 + t2^3)*dmu + {c1}*t2*d1", 19),
]


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([s for s in range(-9, 10) if s]), rng.randint(1, 4))


def _scalar_text(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _monomial_text(alpha: Sequence[int], direction: str) -> str:
    parts = [f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(alpha) if e]
    return "*".join(parts + [direction])


def _element_text(terms: Sequence[Tuple[Fraction, Sequence[int], str]]) -> str:
    out = ""
    for c, alpha, direction in terms:
        body = _monomial_text(alpha, direction)
        mag = abs(c)
        if mag != 1:
            body = f"{_scalar_text(mag)}*{body}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _random_terms(rng: random.Random, variant: str, m: int, box: int, count: int):
    lo = 0 if variant == "wnplusplus" else -box
    directions = ["dmu"] if variant == "wnmu" else [f"d{j}" for j in range(1, m + 1)]
    seen = set()
    terms = []
    while len(terms) < count:
        alpha = tuple(rng.randint(lo, box) for _ in range(m))
        direction = rng.choice(directions)
        if (alpha, direction) in seen:
            continue
        seen.add((alpha, direction))
        terms.append((_coefficient(rng), alpha, direction))
    return terms


def _random_element(rng: random.Random, variant: str, m: int, box: int) -> str:
    return _element_text(_random_terms(rng, variant, m, box, TERMS))


def _variant_argv(variant: str, arity: int, prefix: int, box: int) -> List[str]:
    argv = ["--arity", str(arity), "--variant", variant, "--box", str(box)]
    if variant == "winf":
        argv += ["--prefix", str(prefix)]
    return argv


def lemma_grid() -> List[dict]:
    jobs = []
    for n in (1, 2, 3):
        for k in CRITERION_2_K:
            if (n, k) not in CRITERION_2_LEFT_OUT:
                argv = ["verify", "lemma2.2", "--arity", str(n), "--k", str(k)]
                jobs.append({"check": "lemma", "lemma": "2.2", "n": n, "k": k,
                             "box": abs(k) + 2, "argv": argv})
    for n, k, box in LEMMA_2_2_EXTRA:
        jobs.append({"check": "lemma", "lemma": "2.2", "n": n, "k": k, "box": box,
                     "argv": ["verify", "lemma2.2", "--arity", str(n), "--k", str(k),
                              "--box", str(box)]})
    for n, m, k, box in LEMMA_4_1_CELLS:
        jobs.append({"check": "lemma", "lemma": "4.1", "n": n, "m": m, "k": k, "box": box,
                     "argv": ["verify", "lemma4.1", "--arity", str(m), "--prefix", str(n),
                              "--k", str(k), "--box", str(box)]})
    return jobs


def rigidity_tables(rng: random.Random, workdir: Path) -> List[dict]:
    from wittkit import AlgebraVariant, WittAlgebra, bracket, parse_element

    jobs = []
    for kind, variant, arity, prefix, box, count in RIGIDITY_STRATA:
        factory = getattr(AlgebraVariant, variant)
        algebra = WittAlgebra(factory(prefix, arity) if variant == "winf" else factory(arity))
        mu_block = [f"t{i}" for i in range(1, prefix + 1)]
        anchors = ["dmu", f"({' + '.join(mu_block)})*dmu"]
        fixed = anchors + [f"({' + '.join(t + '^' + str(p) for t in mu_block)})*dmu"
                           for p in (2, 3)]
        for _ in range(count):
            b_terms = _random_terms(rng, variant, arity, box, TERMS)
            if variant == "winf":
                # a part in the anchors' common centralizer (t^beta d_j, j > n)
                # makes every residual non-zero, so realize_in_span works
                beta = [0] * arity
                beta[prefix] = rng.randint(-box, box)
                b_terms.append((_coefficient(rng), beta, f"d{arity}"))
            b_text = _element_text(b_terms)
            probes = list(fixed)
            # distinct as elements, not only as text: the table would merge them
            elements = [parse_element(x, algebra) for x in probes]
            while len(probes) < len(fixed) + RANDOM_PROBES:
                x = _random_element(rng, variant, arity, box)
                element = parse_element(x, algebra)
                if element not in elements:
                    probes.append(x)
                    elements.append(element)
            b = parse_element(b_text, algebra)
            values = [bracket(b, x) for x in elements]
            perturbed = None
            if kind == "obstructed":
                perturbed = rng.randrange(2, len(probes))
                extra = _random_terms(rng, variant, arity, box, 1)
            elif kind == "inconsistent":
                perturbed = rng.randrange(2)
                # Delta(d_mu) gets a Cartan term, which ad(d_mu) never
                # reaches; Delta((t1+..+tn)d_mu) gets an exponent out of reach
                alpha = [0] * arity
                if perturbed == 1:
                    alpha[rng.randrange(prefix)] = box + 2
                extra = [(_coefficient(rng), alpha, f"d{rng.randint(1, arity)}")]
            if perturbed is not None:
                values[perturbed] += parse_element(_element_text(extra), algebra)
            table = {"probes": [{"x": x, "dx": algebra.format(v)} for x, v in zip(probes, values)]}
            path = workdir / f"table{len(jobs):03d}.json"
            path.write_text(json.dumps(table, indent=1), encoding="utf-8")
            jobs.append({"check": "rigidity", "kind": kind, "variant": variant, "arity": arity,
                         "prefix": prefix, "box": box, "b": b_text, "perturbed": perturbed,
                         "table": table,
                         "argv": ["rigidity", *_variant_argv(variant, arity, prefix, box),
                                  "--probes", str(path)]})
    return jobs


def centralize_symbolic(rng: random.Random) -> List[dict]:
    pending = list(CENTRALIZE_FIXED)
    seen = {text for _, text in pending}
    for box, template, count in CENTRALIZE_TEMPLATES:
        made = 0
        while made < count:
            coeffs = {"c1": _coefficient(rng), "c2": _coefficient(rng)}
            text = template.format(**{k: f"({_scalar_text(v)})" for k, v in coeffs.items()})
            if text in seen:
                continue
            seen.add(text)
            pending.append((box, text))
            made += 1
    return [{"check": "centralize", "z": text, "box": box,
             "argv": ["centralize", "--arity", "2", "--box", str(box), text]}
            for box, text in pending]


def generate(workload: str, seed: int, workdir: Path) -> List[dict]:
    """The workload's jobs for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lemma-grid":
        jobs = lemma_grid()
    elif workload == "rigidity-centralize":
        jobs = rigidity_tables(rng, workdir) + centralize_symbolic(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
        job["argv"] = job["argv"] + ["--format", "json"]
    return jobs
