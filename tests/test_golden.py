"""Byte-level pins of synthesis output.

Each digest is the sha256 of the certificate JSON, the partner's table and
the result's part, basis and index, so any change in what `synthesize`
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
        h.update(repr((res.g.pairs, res.part, res.basis, res.index)).encode())
    return h.hexdigest()


# (seed, part) -> digest of that part's results, in corpus order
CORPUS = {
    (0, 1): "25d1d1b92ba90c7a3ee44118766bc8901eb482c89df98074f20737946751005b",
    (0, 2): "e16f9bbab9e25ca5cafe94a7cd301bf12721ee8827bde5ac7192f1c55276c424",
    (0, 3): "eaf01f9aaa4995ac9eafb021998e8cbfbd9f331f3415b02c9118ee5014ba8f1b",
    (0, 4): "54d0ad35f97aee4f4cc7b50a57acbc512e57f164c0e74a76cc92a3b96ffd5ab8",
    (9, 1): "355f7cb4c12ed5fb98966229c21871723cef1ec73befd7c90ad444d5de18c166",
    (9, 2): "2bacccea44b4c7e3203ee06c18416f0a929e7ae6519b91a6b776ce676c620488",
    (9, 3): "17cdfe24029ab2ecc422ee7bdb0d57c94328e6e55abcc986c49241c60549f924",
    (9, 4): "98df4c295e79748b8fb473610a28961e97831385848ca1a18de9a294fca699ae",
    (10, 1): "ea7dff7e54cc1803b590f15d463e3095a035857a9b06efaa035d87005ffb12a2",
    (10, 2): "f952ccea6b0f88a8e9e795e2b608ffa44cc3943d52d656395f229a89378a5f56",
    (10, 3): "e82b3098157c7a6623b2e63c6728efa5fa909aa5d47cb38d2b09b491ef794f8f",
    (10, 4): "96f162bbb1d235900bcb70edcd0f850eb840558d65c0fc521a3cb1dd72201164",
}

# (f, c, d) -> digest; f is x0 or its inverse
X0_CASES = {
    ("x0", 2, 3): "d8ef227df410b4123a756c2cb9ba383d310498bc453f61b4d0e33cb9e8d87227",
    ("x0", 2, -3): "91bf27ea22a79139cd601cf6530edd40895dc406e14d89c09f8872c4661ec3c5",
    ("x0", -2, 3): "067e5bc91e59f86dfeef956389598f78a42fe3df81974039aae7be747887a017",
    ("x0", -2, -3): "bbde88f005f35dcba533488058f15cef15a2460ef8b787153d71b51b1a8dfc8d",
    ("x0", 3, 0): "dc56c312e55ab153add05dd1127709e55d3d2450f52d570bc35301ffcdc4a9d4",
    ("x0", -3, 0): "9afa98dfda22ba2a05dd311ad9c733f17aa61c965f059e2f05970d6e9c0d7f56",
    ("x0", 0, 3): "4af7abc3f6f2de9c9f04318d81a4bcfe4a686daa25d52e53b1b4286ec1a86cb7",
    ("x0", 0, -3): "ceaa069fa5d59d84afa72d536500c51eca35e32257491e1a24a9ad4158b3d983",
    ("x0", 0, 0): "6a75762eea92be4971e584c7d3237d5376746262e7888af3ab7fe7db0f278736",
    ("x0^-1", 2, 3): "3c4838b07c6c447d84325e270b9831736060141a306f37ab9108ac9ff5b90f27",
    ("x0^-1", 2, -3): "5581afca00f543d71c00f9fc8b0636f19b4d157382a469e6f80bb12d2faf4d3d",
    ("x0^-1", -2, 3): "4d757e234db89d5776788a3c61c03ba1f9ad602f71603d40d90e944765d17bf5",
    ("x0^-1", -2, -3): "eacc2a750b97404b11ac4e0cde86b8869a965ac778fc7c4d53c6a86b91df7ba9",
    ("x0^-1", 3, 0): "f7a306bc014a6db2b44e01a843abe87b19608d4bc7e134a91500b2860e3000c9",
    ("x0^-1", -3, 0): "2a4c453cf07cc4e3a7ea50b42854b1fec2a14e2a8e47bc05ff388d8041816197",
    ("x0^-1", 0, 3): "101e687d85d35198a02578831b48c014e2f7a7b8d2ea70096955547393d096fd",
    ("x0^-1", 0, -3): "6fdc387f938bb83793e2d828f279de9202d2d74e9ed80d0cdea13b8316480f9d",
    ("x0^-1", 0, 0): "3fe34d044a716ddf94efcc5634265010ee40505aa0bcc79c46d12833dc311b40",
    # the benchmark's ladder steps
    ("x0", 6, 6): "e2f30cce328e8b2fec1e9e78701b615afe0a666ba547af17db77e33701d9b899",
    ("x0", -6, 6): "371258fc4ec0fbb352f27fe74e9633e596629f0fec5ff6399e33a3a5603365c1",
    ("x0", 12, 12): "ea10d625cde5158a5f191fa473215e2a22fbf6a9f27fd7944b19438383e88a8d",
    ("x0", -12, 12): "0aed4b08cce3c649867ecd5b2666f980b08ce9bd76fb3b69c13bbd19fd53bcf8",
    ("x0", 24, 24): "1fce1fbef92a602f8124171e65cb176b0b7a78329ba793b7ddcda4341696287c",
    ("x0", -24, 24): "b7ae0e41cfa3648726d7c6ae05ee0dc9e83577d24c8a7cb2e5fb713fffc0594b",
    # large ladder steps, where the pruner makes most of its trials
    ("x0", 48, 48): "a5f1724ae69e5e29f2f7020e1946938474aaeb5ba4c504bad474a2e07bbcde4b",
    ("x0", -48, 48): "3be2a5d61f9edd2eca2eaad68ebd553a9923e5a70e5757584d77d8bfa1d82159",
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
