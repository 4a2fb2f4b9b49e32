"""Byte-level pins of synthesis output.

Each digest is the sha256 of the certificate JSON, the partner's table, the
blocks and the remaining result fields, so any change in what `synthesize`
emits shows up here, not only a change between two runs of the same code.
The corpus digests are kept per construction part, so such a change shows
which construction moved. A deliberate change of output must update these
digests and say why.
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


# (seed, part) -> digest of that part's results, in corpus order
CORPUS = {
    (0, 1): "e910124ce9bcf56983ac7377a6f9e5ad27aab18142be5a7e2f2f4dbf901e0368",
    (0, 2): "b2507b55df00fac41d0a379c83c026abc0ca72a83fbd41481fdb2e4cd047ffed",
    (0, 3): "56d400c8dd2c492dc85f6af57bd2acbac2ba828bfae0202e1225572599db5027",
    (0, 4): "dd1665fdb3a89e21f93e63cbb59ee1aa165c38ab4c90404a4f4f1a5e094c27b3",
    (9, 1): "3bd24f1f74dce63afde2f46b169d911d1b7b9f6ebc82afe6b252684463036394",
    (9, 2): "3e43eb5a7424552f6e70e6443a14920268652a66a725f8b793c5a1ea39332643",
    (9, 3): "5c26251e3b14d6cc8d4271bc728ffc0ad17cf2d81b276e1344ea53dc6dd6770d",
    (9, 4): "259e2b597e80d124a860d8f90c9503054107dedd97bad36c30470d19e89d252a",
    (10, 1): "94f34127104619afa00bc18b210f2b72c09c1b93ca4c28836bcec232b1c3f107",
    (10, 2): "bd190208f946d2f9350c06be8bbcc177228e5238c14ca10293bc870ba60237b2",
    (10, 3): "dc7fede989cfdef6624a9d2a2126be525e806cf43df12283ef413186855acd73",
    (10, 4): "256f09f1f73ed5772a8a4a62bc26561c4b8fc920158bf5e97fe9fe1f30069161",
}

# (f, c, d) -> digest; f is x0 or its inverse
X0_CASES = {
    ("x0", 2, 3): "9a7ec58282191f181adca38fcb6f00ca09b4f8f9cad18d1b19593d791b88ae5c",
    ("x0", 2, -3): "e42662e364126b3e57310ba157f39653e7e25e5c0c4fbacb2b105ea7b5dab70c",
    ("x0", -2, 3): "6fb5f3986870bab0280131a3cbb825802d446960d73be33dd2b98b570c3ed39d",
    ("x0", -2, -3): "3949d896985a80a105c6db7b169f4821786a001acc845516d035dfa35e2d06eb",
    ("x0", 3, 0): "6116b824e1efdf4774cf38dc6f2cc266ad8e38669113427921de95f2c0ae4282",
    ("x0", -3, 0): "75efba632dbc4805b3dd01429166aab57238e2ae8cb4d8101dd079d56a01b2e8",
    ("x0", 0, 3): "84ee52043dda110df2804d7aa3a355c65283200afbbb8ab735316a7848c019ac",
    ("x0", 0, -3): "98ab9a5973a2c28dd372708c67b644956b54c9e928f20bb89ee2c4915648fe97",
    ("x0", 0, 0): "2242e44b90c9cbc53f181213d955a77e9883cfbc8aaa3aafd0a30f44ba952bfb",
    ("x0^-1", 2, 3): "41c305183229eb774ce5f0dd3c5576aa432977dfe7a7420c671808166db08275",
    ("x0^-1", 2, -3): "bed0078f01c05eae3ad41773c5548b99bd2b2f620c40c8950521066adb0a744c",
    ("x0^-1", -2, 3): "8aba5c2c48867223fa743dec5f2769429310af4689fbcb69a3976892c7587b05",
    ("x0^-1", -2, -3): "d19548922909f8f06a6e1539096f77af74596522829d73d19516621236c14840",
    ("x0^-1", 3, 0): "7765fd7c493d22ba627d8db48a166efb65bac8bcb223c0fbfab4b0dea17094da",
    ("x0^-1", -3, 0): "7d5e392a40c132c166ece0e676302d66ade5a8315623e2ef03efd007b9af2394",
    ("x0^-1", 0, 3): "a413a394934bf8f942d05476f5677a3d5695dfcc6b82f83e45fbd561380b852a",
    ("x0^-1", 0, -3): "42df8af9a989b4b796d8a58ec0e919eb119692e029d1d213ec47becdb210e500",
    ("x0^-1", 0, 0): "c8a915ec7f1db38bc523db812c569eaa72d5be96357d4f047db3779df819e8cd",
    # large ladder steps, where the pruner makes most of its trials
    ("x0", 48, 48): "04ad039cdf71ee6b544f706ee3f59155a0a610981bcf89680d9ede8c34f8c2be",
    ("x0", -48, 48): "070ec66238c26276cb5e7ef8fd79f55ad5d4250ad6f6ab47dc6e679426339b4a",
}


@pytest.mark.parametrize("seed", [0, 9, 10])
def test_corpus_output_is_pinned(seed):
    results = [entry[3] for entry in corpus_entries(seed, 50)]
    parts = (1, 2, 3, 4)
    digests = {part: _digest(r for r in results if r.part == part) for part in parts}
    assert digests == {part: CORPUS[seed, part] for part in parts}


@pytest.mark.parametrize(("name", "c", "d"), list(X0_CASES))
def test_x0_output_is_pinned(name, c, d):
    f = X0 if name == "x0" else invert(X0)
    assert _digest([synthesize(f, c, d)]) == X0_CASES[name, c, d]
