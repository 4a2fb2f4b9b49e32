"""Acceptance gate: eight end-to-end criteria, one reported line each.

Every check is exact (group elements, integer lattices and binary words admit
no tolerances); the only pinned numbers are the case counts, the enumeration
bounds and the per-criterion wall-clock budgets.
"""

import itertools
import json
import time
from dataclasses import replace
from math import gcd

from thompsonf import (
    AbelianImage,
    IDENTITY,
    X0,
    X1,
    abelianize,
    certify_normal_generation,
    compose,
    complete_generating_pair,
    eval_word,
    has_branch_pair,
    invert,
    power,
    synthesize,
)
from thompsonf.certify import (
    CertificateFormatError,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
)
from thompsonf.cli import random_nontrivial
from thompsonf.lattice import companion_rectangular, index_of

from conftest import GENS
from oracles import (
    brute_force_relations,
    enumerate_ball,
    lattice_contains,
    reference_blocks,
    relation,
    self_check_blocks,
)
import random


def report(n: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {state} - {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")


def test_criterion_1_group_axioms_and_presentation():
    budget = 1.0
    t0 = time.perf_counter()
    y = compose(X0, invert(X1))
    conj1 = compose(compose(invert(X0), X1), X0)
    conj2 = compose(compose(invert(power(X0, 2)), X1), power(X0, 2))
    relators_ok = all(
        compose(compose(invert(y), invert(c)), compose(y, c)).is_identity()
        for c in (conj1, conj2)
    )
    rng = random.Random(1)
    laws_ok = True
    for _ in range(200):
        f = random_nontrivial(rng, 8)[1]
        g = random_nontrivial(rng, 8)[1]
        h = random_nontrivial(rng, 8)[1]
        laws_ok &= compose(compose(f, g), h) == compose(f, compose(g, h))
        laws_ok &= compose(f, invert(f)) == IDENTITY == compose(invert(f), f)
    elapsed = time.perf_counter() - t0
    ok = relators_ok and laws_ok and elapsed < budget
    report(1, ok, "both relators trivial, 200 random triples obey group laws", elapsed, budget)
    assert relators_ok and laws_ok
    assert elapsed < budget


def test_criterion_2_worked_construction():
    budget = 1.0
    t0 = time.perf_counter()
    res = synthesize(X0, 1, 1)
    cert = res.certificate
    blocks = dict(reference_blocks(cert.tree, cert.w, 1, 1))
    blocks_ok = (
        set(blocks) == {"A", "B", "C"}
        and blocks["A"]
        == (
            ("000000", "00000"), ("000001", "00001"), ("00001", "0001"),
            ("0001", "0010"), ("0010", "0011"), ("0011", "0100"),
            ("010", "0101"),
        )
        and blocks["B"]
        == (
            ("01100", "01100"), ("0110100", "011010"),
            ("0110101", "0110110"), ("011011", "0110111"),
        )
        and blocks["C"]
        == (
            ("0111", "01110"), ("10", "01111"), ("110", "10"),
            ("1110", "110"), ("11110", "1110"), ("111110", "11110"),
            ("111111", "11111"),
        )
    )
    self_check_blocks(res)  # the builders' rows are g's table and hold its witnesses
    fixed_row_ok = (cert.w + "100", cert.w + "100") in blocks["B"]  # w100 -> w100 at w=01
    image_ok = abelianize(res.g) == AbelianImage(1, 1)
    slope_ok = cert.slope.alpha == cert.w + "101"
    verdict = certify_normal_generation(cert)
    elapsed = time.perf_counter() - t0
    ok = blocks_ok and fixed_row_ok and image_ok and slope_ok and verdict.ok and elapsed < budget
    report(2, ok, "synthesize(x0,1,1) reproduces blocks A/B/C, image (1,1), PASS", elapsed, budget)
    assert blocks_ok and fixed_row_ok and image_ok and slope_ok and verdict.ok
    assert elapsed < budget


def test_criterion_3_end_to_end_corpus():
    budget = 60.0
    from thompsonf.cli import corpus_entries

    t0 = time.perf_counter()
    entries = corpus_entries(0, 50)
    exact = sum(
        1
        for _, f, target, result in entries
        if certify_normal_generation(result.certificate).ok
        and tuple(abelianize(result.g)) == target
    )
    parts = {result.part for _, _, _, result in entries}
    elapsed = time.perf_counter() - t0
    ok = exact == 50 and parts == {1, 2, 3, 4} and elapsed < budget
    report(3, ok, f"seed 0: {exact}/50 exact images and PASS, parts hit: {sorted(parts)}", elapsed, budget)
    assert exact == 50
    assert parts == {1, 2, 3, 4}
    assert elapsed < budget


def test_criterion_4_rectangular_sweep():
    budget = 1.0
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == 0 and b == 0:
                continue
            c, d, form = companion_rectangular(a, b)
            g = gcd(a, b)
            basis = ((a, b), (c, d))
            rect = ((form.p, 0), (0, form.q))
            ok &= form.p * form.q == g
            ok &= index_of(basis) == g
            ok &= lattice_contains(basis, (form.p, 0))
            ok &= lattice_contains(basis, (0, form.q))
            ok &= lattice_contains(rect, (a, b))
            ok &= lattice_contains(rect, (c, d))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 41 * 41 - 1 and elapsed < budget
    report(4, ok, f"{checked} pairs: pq=gcd, index=pq, lattice = pZ x qZ", elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_5_whole_group_pairs():
    budget = 30.0
    t0 = time.perf_counter()
    rng = random.Random(2)
    done = 0
    ok = True
    while done < 20:
        _, f = random_nontrivial(rng)
        a, b = abelianize(f)
        if gcd(a, b) != 1:
            continue
        res = complete_generating_pair(f)
        (a1, b1), (c1, d1) = res.basis
        ok &= abs(a1 * d1 - b1 * c1) == 1
        ok &= res.index == 1
        ok &= certify_normal_generation(res.certificate).ok
        done += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    report(5, ok, "20 unimodular-image inputs: det +/-1 and PASS", elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_6_oracle_equivalence():
    budget = 120.0
    from thompsonf.cli import corpus_entries

    t0 = time.perf_counter()
    entries = corpus_entries(0, 10)
    witness_ok = realized_ok = True
    for _, f, _, result in entries:
        g = result.g
        cert = result.certificate
        rels = brute_force_relations(f, g, 4, 6)
        for wit in (
            *cert.witnesses,
            cert.left_schema.witness,
            cert.right_schema.witness,
        ):
            if len(wit.lhs) <= 6 and len(wit.rhs) <= 6:
                witness_ok &= relation(wit.lhs, wit.rhs) in rels
        ball = [e for _, e in enumerate_ball(f, g, 4)]
        for u, v in rels:
            realized_ok &= any(has_branch_pair(e, u, v) for e in ball)
    elapsed = time.perf_counter() - t0
    ok = witness_ok and realized_ok and elapsed < budget
    report(6, ok, "10 pairs: witnesses in brute-force set; all brute relations realized", elapsed, budget)
    assert witness_ok and realized_ok
    assert elapsed < budget


def test_criterion_7_tamper_suite():
    budget = 5.0
    t0 = time.perf_counter()
    cert = synthesize(X0, 1, 1).certificate
    condition_codes = {"condition-1", "condition-2", "condition-3", "condition-4"}
    ok = True
    # deleting any single witness
    for i in range(len(cert.witnesses)):
        trimmed = replace(cert, witnesses=cert.witnesses[:i] + cert.witnesses[i + 1:])
        verdict = certify_normal_generation(trimmed)
        ok &= (not verdict.ok) and verdict.code in condition_codes
    # breaking caret balance in the serialized partner
    doc = certificate_to_dict(cert)
    doc["g"]["domain"] = doc["g"]["domain"][:-1]
    try:
        certificate_from_json(json.dumps(doc))
        ok = False
    except CertificateFormatError as err:
        ok &= err.code == "invalid-element"
    # zeroing a schema shift
    for field in ("left_schema", "right_schema"):
        sch = getattr(cert, field)
        bad = replace(cert, **{field: replace(sch, base_count=0)})
        verdict = certify_normal_generation(bad)
        expect = "condition-3" if field == "left_schema" else "condition-4"
        ok &= (not verdict.ok) and verdict.code == expect
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    report(7, ok, "witness deletion, caret imbalance, zeroed shift all FAIL correctly", elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_8_determinism():
    budget = 120.0
    from thompsonf.cli import corpus_entries

    t0 = time.perf_counter()

    def run_once(seed):
        out = []
        for word, f, target, result in corpus_entries(seed, 12):
            out.append(
                (
                    tuple(word),
                    f.pairs,
                    target,
                    result.g.pairs,
                    certificate_to_json(result.certificate),
                    certify_normal_generation(result.certificate).code,
                )
            )
        return out

    first = run_once(9)
    second = run_once(9)
    other = run_once(10)
    elapsed = time.perf_counter() - t0
    ok = first == second and first != other and elapsed < budget
    report(8, ok, "same seed reproduces byte-identical tables and certificates", elapsed, budget)
    assert first == second
    assert first != other
    assert elapsed < budget
