"""The names `import thompsonf` exports: each one is used by the package
itself or documented in README, and the removed ones stay removed."""

import re
from pathlib import Path

import pytest

import thompsonf
from thompsonf import dynamics, element, lattice, words

PACKAGE = Path(thompsonf.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = (
    "AbelianImage",
    "Certificate",
    "CertificateFormatError",
    "CertifyResult",
    "Dyadic",
    "Element",
    "GroupWord",
    "IDENTITY",
    "INFINITE",
    "IdentityInput",
    "InvalidCode",
    "LengthMismatch",
    "NotUnimodular",
    "PreconditionViolated",
    "RectangularForm",
    "ShiftSchema",
    "SlopeWitness",
    "SuffixCongruence",
    "SynthesisResult",
    "UVWTriple",
    "UnknownSymbol",
    "Witness",
    "X0",
    "X1",
    "abelianize",
    "certificate_from_dict",
    "certificate_from_json",
    "certificate_to_dict",
    "certificate_to_json",
    "certify_normal_generation",
    "companion_rectangular",
    "complete_basis",
    "complete_generating_pair",
    "compose",
    "eval_word",
    "evaluate",
    "find_uvw",
    "finite_index_pair",
    "flip",
    "format_element",
    "format_group_word",
    "from_branch_pairs",
    "from_codes",
    "has_branch_pair",
    "image_of_interval",
    "in_B_prime",
    "index_of",
    "invert",
    "is_complete_prefix_code",
    "parse_dyadic",
    "parse_element",
    "parse_group_word",
    "power",
    "slope_left",
    "slope_right",
    "synthesize",
    "word_to_dyadic",
)

REMOVED = (
    "ONE",
    "ZERO",
    "common_refinement",
    "in_derived",
    "interval_endpoints",
    "is_prefix",
    "lattice_contains",
    "zero_tail_pair",
)


def test_exports_are_pinned():
    assert tuple(thompsonf.__all__) == EXPORTED
    assert len(EXPORTED) == 57


def test_every_export_resolves():
    for name in thompsonf.__all__:
        assert getattr(thompsonf, name) is not None, name


def test_every_export_is_used_or_documented():
    # a use in the package is any mention but the line that defines the name
    source = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    )
    readme = README.read_text(encoding="utf-8")
    for name in thompsonf.__all__:
        word = re.escape(name)
        uses = re.sub(rf"^(?:def|class) {word}\b.*$|^{word}\b\s*[:=].*$", "", source, flags=re.M)
        assert re.search(rf"\b{word}\b", uses) or re.search(rf"\b{word}\b", readme), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_exported(name):
    with pytest.raises(ImportError):
        exec(f"from thompsonf import {name}", {})


def test_removed_functions_are_gone_from_their_modules():
    assert not hasattr(words, "is_prefix")
    assert not hasattr(words, "interval_endpoints")
    assert not hasattr(element, "common_refinement")
    assert not hasattr(element, "in_derived")
    assert not hasattr(lattice, "lattice_contains")
    assert not hasattr(lattice, "_primitive")
    assert not hasattr(dynamics, "left_fixed_boundary")
    assert not hasattr(dynamics, "zero_tail_pair")
    # the constants stay where the tests read them
    assert (words.ZERO, words.ONE) == (words.Dyadic(0, 0), words.Dyadic(1, 0))
