import os
import subprocess
import sys
import textwrap

import pytest
from dataclasses import replace
from hypothesis import given, settings

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
    flip,
    invert,
    power,
    synthesize,
)
from thompsonf.dynamics import IdentityInput, PreconditionViolated
from thompsonf.lattice import INFINITE
from thompsonf.synthesis import (
    build_scaffold_tree,
    construct_part1,
    construct_part2,
    construct_part3,
    construct_part4,
    self_check_blocks,
)

from conftest import elements


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
    res = construct_part1(X0, 1, 1)
    cert = res.certificate
    assert cert.w == "01"
    assert cert.tree == X0_TREE
    assert res.g.pairs == X0_G_PAIRS
    assert dict(res.blocks)["A"] == X0_BLOCK_A
    assert dict(res.blocks)["B"] == X0_BLOCK_B
    assert dict(res.blocks)["C"] == X0_BLOCK_C
    assert abelianize(res.g) == AbelianImage(1, 1)
    assert cert.slope.alpha == "01101"
    assert cert.depth == 11
    assert len(cert.witnesses) == 11
    assert res.index == 2
    assert certify_normal_generation(cert).ok


def test_part1_blocks_tile_the_interval():
    for target in ((1, 1), (-2, 3), (2, -3), (-1, -1)):
        res = construct_part1(X0, *target)
        self_check_blocks(res)
        assert res.part == 1


def test_part2_and_its_flip():
    res2 = construct_part2(X0, 2)
    assert res2.part == 2
    assert abelianize(res2.g) == AbelianImage(2, 0)
    self_check_blocks(res2)
    res3 = construct_part3(X0, 2)
    assert res3.part == 3
    assert abelianize(res3.g) == AbelianImage(0, 2)
    self_check_blocks(res3)
    # part 3 is exactly the mirror of part 2 applied to the mirrored input
    assert res3.g == flip(construct_part2(flip(X0), 2).g)


def test_part4_lands_in_derived_subgroup():
    res = construct_part4(X0)
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


def test_complete_generating_pair():
    res = complete_generating_pair(X0)
    assert res.index == 1
    det = (
        res.basis[0][0] * res.basis[1][1] - res.basis[0][1] * res.basis[1][0]
    )
    assert abs(det) == 1
    assert certify_normal_generation(res.certificate).ok
    with pytest.raises(ValueError):
        complete_generating_pair(power(X0, 2))  # image (2,-2), gcd 2


def test_finite_index_pair():
    res = finite_index_pair(power(X0, 2))
    assert res.index == 2  # gcd of (2, -2)
    assert certify_normal_generation(res.certificate).ok
    res1 = finite_index_pair(X1)
    assert res1.index == 1


def test_witnesses_are_minimal(rng):
    for target in ((1, 1), (0, -2), (2, 0), (0, 0)):
        res = synthesize(X0, *target)
        cert = res.certificate
        for i in range(len(cert.witnesses)):
            trimmed = replace(
                cert, witnesses=cert.witnesses[:i] + cert.witnesses[i + 1:]
            )
            assert not certify_normal_generation(trimmed).ok


def test_output_guards_survive_optimized_mode():
    # Under `python -O` bare asserts vanish; the re-check of the pruned
    # certificate must still refuse a construction whose pruning went wrong.
    script = textwrap.dedent(
        """
        import sys
        from dataclasses import replace
        from thompsonf import X0, synthesis

        if sys.flags.optimize < 1:
            sys.exit("not running under -O")
        synthesis._prune_witnesses = lambda cert: replace(cert, witnesses=())
        try:
            synthesis.synthesize(X0, 1, 1)
        except AssertionError as exc:
            print("refused:", exc)
            sys.exit(0)
        sys.exit("synthesize returned a certificate it never re-checked")
        """
    )
    src = os.path.dirname(os.path.dirname(thompsonf.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "pruned certificate rejected" in proc.stdout
