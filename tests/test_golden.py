"""Byte-level pins of synthesis output.

Each digest is the sha256 of the certificate JSON, the partner's table, the
blocks and the remaining result fields, so any change in what `synthesize`
emits shows up here, not only a change between two runs of the same code.
A deliberate change of output must update these digests and say why.
"""

import hashlib

import pytest

from thompsonf import X0, invert, synthesize
from thompsonf.certify import certificate_to_json
from thompsonf.cli import corpus_entries


def _digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(certificate_to_json(res.certificate).encode())
        h.update(
            repr(
                (res.g.pairs, res.blocks, res.block_word, res.part, res.basis, res.index)
            ).encode()
        )
    return h.hexdigest()


CORPUS = {
    0: "869eb03893d7d057bf25da3991783080418086e9694d05a10cd7e987300c6d6c",
    9: "c3a87e4d125052cd8d62a98521aa7dfe2178d0b2e13a3ab4839fd18b492f495b",
    10: "f1bb28f42f6d877aa3f20beee4e6944419fc5b3f653dace4d79266b913be487a",
}

# (f, c, d) -> digest; f is x0 or its inverse
X0_CASES = {
    ("x0", 2, 3): "9a7ec58282191f181adca38fcb6f00ca09b4f8f9cad18d1b19593d791b88ae5c",
    ("x0", 2, -3): "e42662e364126b3e57310ba157f39653e7e25e5c0c4fbacb2b105ea7b5dab70c",
    ("x0", -2, 3): "6fb5f3986870bab0280131a3cbb825802d446960d73be33dd2b98b570c3ed39d",
    ("x0", -2, -3): "3949d896985a80a105c6db7b169f4821786a001acc845516d035dfa35e2d06eb",
    ("x0", 3, 0): "6116b824e1efdf4774cf38dc6f2cc266ad8e38669113427921de95f2c0ae4282",
    ("x0", -3, 0): "75efba632dbc4805b3dd01429166aab57238e2ae8cb4d8101dd079d56a01b2e8",
    ("x0", 0, 3): "e410a1b61190fa8e2649711171d680b4eb836c7db20ec4da8c67f94d80f6066f",
    ("x0", 0, -3): "19e493751f271eb98ea7906146b947e28a2b61fa82f4263407e22b95754873d2",
    ("x0", 0, 0): "2242e44b90c9cbc53f181213d955a77e9883cfbc8aaa3aafd0a30f44ba952bfb",
    ("x0^-1", 2, 3): "41c305183229eb774ce5f0dd3c5576aa432977dfe7a7420c671808166db08275",
    ("x0^-1", 2, -3): "bed0078f01c05eae3ad41773c5548b99bd2b2f620c40c8950521066adb0a744c",
    ("x0^-1", -2, 3): "8aba5c2c48867223fa743dec5f2769429310af4689fbcb69a3976892c7587b05",
    ("x0^-1", -2, -3): "d19548922909f8f06a6e1539096f77af74596522829d73d19516621236c14840",
    ("x0^-1", 3, 0): "7765fd7c493d22ba627d8db48a166efb65bac8bcb223c0fbfab4b0dea17094da",
    ("x0^-1", -3, 0): "7d5e392a40c132c166ece0e676302d66ade5a8315623e2ef03efd007b9af2394",
    ("x0^-1", 0, 3): "a7965713430a8157c75e63a00d99a257a4228e527c48b91fe0d0e56fd603a184",
    ("x0^-1", 0, -3): "186d32577ff0ef15e3c260f642158e8dd1aaaefc6ef0dc13c01b2c16f59ba969",
    ("x0^-1", 0, 0): "c8a915ec7f1db38bc523db812c569eaa72d5be96357d4f047db3779df819e8cd",
    # large ladder steps, where the pruner makes most of its trials
    ("x0", 48, 48): "04ad039cdf71ee6b544f706ee3f59155a0a610981bcf89680d9ede8c34f8c2be",
    ("x0", -48, 48): "070ec66238c26276cb5e7ef8fd79f55ad5d4250ad6f6ab47dc6e679426339b4a",
}


@pytest.mark.parametrize("seed", sorted(CORPUS))
def test_corpus_output_is_pinned(seed):
    results = [entry[3] for entry in corpus_entries(seed, 50)]
    assert _digest(results) == CORPUS[seed]


@pytest.mark.parametrize(("name", "c", "d"), list(X0_CASES))
def test_x0_output_is_pinned(name, c, d):
    f = X0 if name == "x0" else invert(X0)
    assert _digest([synthesize(f, c, d)]) == X0_CASES[name, c, d]
