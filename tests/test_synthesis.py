import os
import random
import subprocess
import sys
import textwrap

import pytest
from dataclasses import fields, replace
from hypothesis import assume, given, settings, strategies as st

import thompsonf
from thompsonf import (
    AbelianImage,
    IDENTITY,
    X0,
    X1,
    abelianize,
    certify_normal_generation,
    complete_generating_pair,
    compose,
    eval_word,
    finite_index_pair,
    invert,
    power,
    synthesize,
)
from thompsonf.dynamics import IdentityInput, PreconditionViolated
from thompsonf import synthesis
from thompsonf.certify import certificate_to_json
from thompsonf import cli
from thompsonf.cli import corpus_entries, random_nontrivial, run
from thompsonf.lattice import INFINITE, index_of
from thompsonf.synthesis import build_scaffold_tree, complete_tree

from conftest import elements
from oracles import invert_result, reference_blocks, self_check_blocks


# frozen run of the canonical example: partner of x0 for target (1,1)
X0_TREE = (
    "0000", "0001", "0010", "0011", "010", "0110", "0111", "10", "110",
    "1110", "1111",
)
X0_G_PAIRS = (
    ("0000", "000"), ("0001", "0010"), ("0010", "0011"), ("0011", "0100"),
    ("010", "0101"), ("01100", "01100"), ("0110100", "011010"),
    ("0110101", "0110110"), ("011011", "0110111"), ("0111", "01110"),
    ("10", "01111"), ("11", "1"),
)
X0_BLOCK_A = (
    ("000000", "00000"), ("000001", "00001"), ("00001", "0001"),
    ("0001", "0010"), ("0010", "0011"), ("0011", "0100"), ("010", "0101"),
)
X0_BLOCK_B = (
    ("01100", "01100"), ("0110100", "011010"), ("0110101", "0110110"),
    ("011011", "0110111"),
)
X0_BLOCK_C = (
    ("0111", "01110"), ("10", "01111"), ("110", "10"), ("1110", "110"),
    ("11110", "1110"), ("111110", "11110"), ("111111", "11111"),
)


def test_part1_canonical_example():
    res = synthesize(X0, 1, 1)
    cert = res.certificate
    assert cert.w == "01"
    assert cert.tree == X0_TREE
    assert res.g.pairs == X0_G_PAIRS
    assert reference_blocks(X0_TREE, "01", 1, 1) == (
        ("A", X0_BLOCK_A), ("B", X0_BLOCK_B), ("C", X0_BLOCK_C),
    )
    self_check_blocks(res)
    assert abelianize(res.g) == AbelianImage(1, 1)
    assert cert.slope.alpha == "01101"
    assert cert.depth == 11
    assert len(cert.witnesses) == 11
    assert res.index == 2
    assert certify_normal_generation(cert).ok


def test_part1_blocks_tile_the_interval():
    for target in ((1, 1), (-2, 3), (2, -3), (-1, -1)):
        res = synthesize(X0, *target)
        self_check_blocks(res)
        assert res.part == 1


def test_part2_and_its_flip():
    res2 = synthesize(X0, 2, 0)
    assert res2.part == 2
    assert abelianize(res2.g) == AbelianImage(2, 0)
    self_check_blocks(res2)
    res3 = synthesize(X0, 0, 2)
    assert res3.part == 3
    assert abelianize(res3.g) == AbelianImage(0, 2)
    self_check_blocks(res3)
    # (0, -2) is the (0, 2) surgery with g inverted, byte for byte
    neg = synthesize(X0, 0, -2)
    expected = invert_result(res3)
    assert certificate_to_json(neg.certificate) == certificate_to_json(expected.certificate)
    assert neg == expected


def test_part4_lands_in_derived_subgroup():
    res = synthesize(X0, 0, 0)
    assert res.part == 4
    assert abelianize(res.g) == AbelianImage(0, 0)
    assert res.index == INFINITE
    self_check_blocks(res)


def test_dispatch_and_signs():
    cases = [
        (X0, 1, 1, 1), (X0, -2, 3, 1), (X0, 2, -3, 1), (X0, -1, -1, 1),
        (X0, 2, 0, 2), (X0, -2, 0, 2), (X0, 0, 3, 3), (X0, 0, -3, 3),
        (X0, 0, 0, 4), (invert(X0), 0, 2, 3), (invert(X0), 0, 0, 4),
    ]
    for f, c, d, part in cases:
        res = synthesize(f, c, d)
        assert res.part == part, (c, d)
        assert abelianize(res.g) == AbelianImage(c, d)
        assert certify_normal_generation(res.certificate).ok
        assert res.basis == (tuple(abelianize(f)), (c, d))
        self_check_blocks(res)


def test_synthesize_rejects_identity_and_unreachable_targets():
    with pytest.raises(IdentityInput):
        synthesize(IDENTITY, 1, 1)
    # x1 has image (0,-1): targets with c = 0 need slope at 0+, absent here
    with pytest.raises(PreconditionViolated):
        synthesize(X1, 0, 5)
    with pytest.raises(PreconditionViolated):
        synthesize(X1, 0, 0)
    # but interior targets stay reachable
    assert certify_normal_generation(synthesize(X1, 2, 2).certificate).ok
    # an element with image (a, 0) cannot take d = 0 targets
    f = compose(X0, invert(X1))
    assert abelianize(f) == AbelianImage(1, 0)
    with pytest.raises(PreconditionViolated):
        synthesize(f, 3, 0)


def test_commutator_input_gets_a_partner():
    # f in the derived subgroup itself still admits an interior-target partner
    y = compose(invert(X0), compose(invert(X1), compose(X0, X1)))
    assert abelianize(y) == AbelianImage(0, 0)
    res = synthesize(y, 1, 1)
    assert res.part == 1
    assert certify_normal_generation(res.certificate).ok
    # the joint abelianization image is only a line, but the pair still
    # covers the derived subgroup
    assert res.index == INFINITE


@settings(max_examples=25, deadline=None)
@given(elements)
def test_random_inputs_interior_target(f):
    if f.is_identity():
        return
    res = synthesize(f, 1, -2)
    assert abelianize(res.g) == AbelianImage(1, -2)
    assert certify_normal_generation(res.certificate).ok
    self_check_blocks(res)


def test_scaffold_tree_shape():
    tree = build_scaffold_tree("0001", "001", "01")
    assert tree == X0_TREE
    k = tree.index("0110") + 1
    assert 5 <= k <= len(tree) - 5
    # optional chains stretch both ends
    longer = build_scaffold_tree("0001", "001", "01", right_chain=3, left_chain=2)
    assert len(longer) > len(tree)
    assert longer[0] == "0" * len(longer[0])
    assert longer[-1] == "1" * len(longer[-1])
    # a single word: the word plus the sibling of each of its proper prefixes
    assert complete_tree(["0110"]) == ("00", "010", "0110", "0111", "1")
    assert complete_tree(["111"]) == ("0", "10", "110", "111")
    assert complete_tree([]) == complete_tree([""]) == ("",)
    for comparable in (["01", "011"], ["", "1"], ["10", "0", "1"]):
        with pytest.raises(AssertionError, match="comparable"):
            complete_tree(comparable)


def test_long_scaffold_chain_does_not_recurse():
    # x0^600 moves u -> v -> w along ~600-letter branches; the tree builder
    # once recursed per letter and overflowed the interpreter stack
    res = synthesize(power(X0, 600), 1, 1)
    assert abelianize(res.g) == AbelianImage(1, 1)
    assert certify_normal_generation(res.certificate).ok


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.integers(-4, 4), d=st.integers(-4, 4))
def test_negated_target_inverts_the_partner(seed, c, d):
    # <f, g> = <f, g^-1>: the partner for (-c, -d) is the partner for (c, d)
    # with the sign of every g-letter flipped, and nothing else changed
    _, f = random_nontrivial(random.Random(seed))
    a, b = abelianize(f)
    assume((c, d) != (0, 0) and (c or a) and (d or b))
    expected = invert_result(synthesize(f, c, d))
    res = synthesize(f, -c, -d)
    assert certificate_to_json(res.certificate) == certificate_to_json(expected.certificate)
    assert res.g == expected.g
    assert res.part == expected.part
    assert res.target == expected.target


def test_complete_generating_pair():
    res = complete_generating_pair(X0)
    assert res.index == 1
    det = (
        res.basis[0][0] * res.basis[1][1] - res.basis[0][1] * res.basis[1][0]
    )
    assert abs(det) == 1
    assert certify_normal_generation(res.certificate).ok


def test_complete_generating_pair_refuses_what_it_cannot_serve(capsys):
    # in [F, F] the images span at most a line; with gcd(a, b) = k > 1, k
    # divides the determinant of every joint image, so none is unimodular
    commutator = compose(compose(X0, X1), compose(invert(X0), invert(X1)))
    for f in (commutator, IDENTITY):
        with pytest.raises(PreconditionViolated, match=r"\[F, F\].*\(0,0\)"):
            complete_generating_pair(f)
    with pytest.raises(PreconditionViolated, match=r"gcd\(2,-2\) = 2 divides det"):
        complete_generating_pair(power(X0, 2))  # image (2,-2)
    for word, start in (
        ("x0 x1 x0^-1 x1^-1", "error: f is in [F, F]"),
        ("id", "error: f is in [F, F]"),
        ("x0^2", "error: gcd(2,-2) = 2 divides det"),
    ):
        assert run(["complete-pair", word]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(start)
        assert err.rstrip().endswith("no g gives <f, g> = F")


def test_result_keeps_only_what_callers_read():
    names = [field.name for field in fields(synthesis.SynthesisResult)]
    assert names == ["certificate", "target"]  # part is read off the target


def test_finite_index_pair():
    res = finite_index_pair(power(X0, 2))
    assert res.index == 2  # gcd of (2, -2)
    assert certify_normal_generation(res.certificate).ok
    res1 = finite_index_pair(X1)
    assert res1.index == 1


def test_finite_index_pair_refuses_the_commutator_subgroup(capsys):
    # the paper's hypothesis is f outside [F, F]; inside it no g gives finite index
    commutator = compose(compose(X0, X1), compose(invert(X0), invert(X1)))
    assert abelianize(commutator) == (0, 0)
    with pytest.raises(PreconditionViolated, match=r"\[F, F\].*\(0,0\)"):
        finite_index_pair(commutator)
    assert run(["finite-index", "x0 x1 x0^-1 x1^-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: f is in [F, F]")


def test_witnesses_are_minimal(rng):
    for target in ((1, 1), (0, -2), (2, 0), (0, 0)):
        res = synthesize(X0, *target)
        cert = res.certificate
        for i in range(len(cert.witnesses)):
            trimmed = replace(
                cert, witnesses=cert.witnesses[:i] + cert.witnesses[i + 1:]
            )
            assert not certify_normal_generation(trimmed).ok


@pytest.mark.parametrize(
    "build, args, part, argv",
    [
        pytest.param(
            synthesize, (X0, 1, 1), 1, ["synthesize", "x0", "--target", "1,1"],
            id="synthesize-part1",
        ),
        pytest.param(
            synthesize, (X0, -2, 3), 1, ["synthesize", "x0", "--target", "-2,3"],
            id="synthesize-part1-negative-c",
        ),
        pytest.param(
            synthesize, (X0, 2, 0), 2, ["synthesize", "x0", "--target", "2,0"],
            id="synthesize-part2",
        ),
        pytest.param(
            synthesize, (X0, 0, -3), 3, ["synthesize", "x0", "--target", "0,-3"],
            id="synthesize-part3",
        ),
        pytest.param(
            synthesize, (X0, 0, 0), 4, ["synthesize", "x0", "--target", "0,0"],
            id="synthesize-part4",
        ),
        pytest.param(
            complete_generating_pair, (X0,), 2, ["complete-pair", "x0"],
            id="complete_generating_pair",
        ),
        pytest.param(
            finite_index_pair, (power(X0, 2),), 3, ["finite-index", "x0^2"],
            id="finite_index_pair",
        ),
    ],
)
def test_each_result_is_certified_once(monkeypatch, capsys, build, args, part, argv):
    # pruning preserves validity, and the sign of a negative target is set
    # while the certificate is built; only the emitted certificate is
    # checked, once
    calls = []

    def counting(cert, *rest):
        calls.append(cert)
        return certify_normal_generation(cert, *rest)

    monkeypatch.setattr(synthesis, "certify_normal_generation", counting)
    monkeypatch.setattr(cli, "certify_normal_generation", counting)
    res = build(*args)
    assert res.part == part
    assert calls == [res.certificate]
    # g, basis and index are read off the certificate and the target
    assert res.g is res.certificate.g
    assert res.basis == (tuple(abelianize(args[0])), tuple(res.target))
    assert res.index == index_of(res.basis)

    # the command line prints the verdict of that check and makes no other
    calls.clear()
    assert run(argv) == 0
    assert calls == [res.certificate]
    assert capsys.readouterr().out.endswith("\nPASS\n")
    calls.clear()
    entries = corpus_entries(0, 8)
    assert calls == [result.certificate for _, _, _, result in entries]


def test_output_guards_survive_optimized_mode():
    # Under `python -O` bare asserts vanish; the one check of the returned
    # result must still refuse a construction whose pruning went wrong, and
    # one whose partner misses the target it is labelled with.
    script = textwrap.dedent(
        """
        import sys
        from dataclasses import replace
        from thompsonf import X0, AbelianImage, synthesis

        if sys.flags.optimize < 1:
            sys.exit("not running under -O")
        faults = {
            "_prune_witnesses": lambda real: lambda cert: replace(cert, witnesses=()),
            "_construct": lambda real: lambda f, c, d: replace(
                real(f, c, d), target=AbelianImage(c + 1, d)
            ),
        }
        for name, fault in faults.items():
            real = getattr(synthesis, name)
            setattr(synthesis, name, fault(real))
            try:
                synthesis.synthesize(X0, 1, 1)
            except AssertionError as exc:
                print("refused:", exc)
            else:
                sys.exit(f"synthesize returned a result it never checked ({name})")
            finally:
                setattr(synthesis, name, real)
        """
    )
    src = os.path.dirname(os.path.dirname(thompsonf.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "refused: pruned certificate rejected" in proc.stdout
    assert "refused: partner misses its abelianization target" in proc.stdout
