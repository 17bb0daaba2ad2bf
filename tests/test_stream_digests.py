"""SHA-256 digests of SPQ1 streams, recorded so that any change to the
bitstream is deliberate.

A change to any digest here is a change to the stream format or to the
encoder's decisions: it must come with the matching change to
docs/bitstream.md and an entry in CHANGES.md that says why the streams moved.
"""

import hashlib

import numpy as np
import pytest

from spectralpq.bench import write_cb_csv, write_motion_csv
from spectralpq.corpus import BENCH_NAMES, moving_gradient
from spectralpq.frames import Frame
from spectralpq.pipeline import MODES, EncoderConfig, encode_sequence

FRAMES = 3
GOP = 2
QPS = (22, 37)

# clip -> (mode, base_qp, rdoq) -> digest.  "@10" is the clip scaled to
# 10-bit samples (value << 2).
DIGESTS = {
    'static_gradient': {
        ('anchor-flat', 22, True): "e1573dca6cd38a504000b3182d660f5ce688db407706ba2abd244a613aa84191",
        ('anchor-flat', 22, False): "336955fced43e2a6c7910305c97c39b980c0eacb4fd186020c479d8cdf943147",
        ('anchor-flat', 37, True): "e357622f279d96111ab55809f91f5667245dfb9e902ee637e82f2f97fe1839d8",
        ('anchor-flat', 37, False): "ff666f5c93597dd0bdbad610504cf89dcfff83a4348e41c3c30fb936dc089e25",
        ('anchor-adaptiveqp', 22, True): "ea296ab62818d83a9cb5c8cb8cda70861f96de1a403a76fc0209f08559210df8",
        ('anchor-adaptiveqp', 22, False): "acd4b4059280dbaa020bcffa7c9a30994157f11ed11fd8c0e9c45aaa908a5fe6",
        ('anchor-adaptiveqp', 37, True): "01753a99ad0d9e59afa9cb38b22ff40e11ec62bed226ab8be91e65f55dc2ba36",
        ('anchor-adaptiveqp', 37, False): "62a34f934a947766b71ac6e9920429ad811422b8f4d7151aed497e2695b49ab7",
        ('spectral-pq', 22, True): "0b2783fda7a270e71497e95aa4b7a6470a65b31de55b3428f86564501d775ebb",
        ('spectral-pq', 22, False): "f87c8264665291bde62d6fca6c587a27a4a0b60cc2e7ca7b15f5b82761e22b83",
        ('spectral-pq', 37, True): "46c391b653faddb7b690b50654be229d93d9da039f36d1da696405fb3a6f13f4",
        ('spectral-pq', 37, False): "3cb23313747b11e1ca21e16934e1255b52940cda360270124a0adf8bff530ddc",
    },
    'moving_gradient': {
        ('anchor-flat', 22, True): "5688f7af1e0f5106d0f5edbf3f8d28d4146af89597d9cf47e77f6abc13ed3f6c",
        ('anchor-flat', 22, False): "e4a34dc2cce2541d9af60b78d969323e2bfc901dba99b83f94aae4120712ceba",
        ('anchor-flat', 37, True): "26bbf6c79aa34c0726a1bed5fb92ecc3e5fb615f3c3f2e2f9b919bebcbdd8a4d",
        ('anchor-flat', 37, False): "574418c9ce1d586a9b5f718e16f913abfaca13642e0db81c9b8620fabb76dd32",
        ('anchor-adaptiveqp', 22, True): "9b7c7db59594b8a00f1f801276fe52d97a67944a78e728d328d42196da27f3ed",
        ('anchor-adaptiveqp', 22, False): "15c664c6123c43bb127b7c274c94da67973b33c10a193281dee363c92639f503",
        ('anchor-adaptiveqp', 37, True): "2fb811678b79df4922d12ef301d42848494f766b2fbc0eaa1666ee4ff014564f",
        ('anchor-adaptiveqp', 37, False): "927dc9c34541bc810f1ade3edf6f5c2ccb9a461a7e4d5d6662bf2ff74172e076",
        ('spectral-pq', 22, True): "92849e66586d8acf82a0c1bf1e8f8b294148642c926b2169d888515bc48713b6",
        ('spectral-pq', 22, False): "e0f71f72b0c0e2e255ffaeb72db39a10ac6a17d1183fc099b8db3bdd01d3c9ec",
        ('spectral-pq', 37, True): "45141ec531f2e34b2d2cd2e7c5671ed922ccef620b3e67da6c0482d08fe9847f",
        ('spectral-pq', 37, False): "a63fb86f61115d784019c36c627f9c0c17de1e15d5509c596dcdea2ce89f8818",
    },
    'noise_patches': {
        ('anchor-flat', 22, True): "887f4f1fc99495e52f7563c04618bbd32b7e531135c7a07ef4fef0bedb0a4a27",
        ('anchor-flat', 22, False): "6267441fca1fd1d3871d35ad889a75eb2d9b314fae98342ce242fa24a9f4204d",
        ('anchor-flat', 37, True): "9d287c5fd45e1ef1192a622d6016f221027d08348098cdfd01a97fb3789b9e7a",
        ('anchor-flat', 37, False): "6dd09617e600c241961edae57b45ef6312b8f196451478c806bdbd69486b1916",
        ('anchor-adaptiveqp', 22, True): "87f68ebebe2bdf4e6f9f0ddb99ac17e84d844b0561c84e17236dd9b2f9ce402b",
        ('anchor-adaptiveqp', 22, False): "b77f6f706424b5276912f717c5747134462a210c5814c8eea35aa318b8904e8d",
        ('anchor-adaptiveqp', 37, True): "dc29c6f1d083056c3da474befa1f692af5ec37d084a5d655bed50c7a523deb70",
        ('anchor-adaptiveqp', 37, False): "aaea08d5c26f9d27b2adbc3263a3eb9fd29b4a20f612e0b83ced5a452282a4eb",
        ('spectral-pq', 22, True): "1e08b299301321a338e7581e6a3124525a40c5258f4b79fe42d0f7c7b49aa7fc",
        ('spectral-pq', 22, False): "f615493d116ff462d96606af3a92c6694813b8a6c9c346e71fc5a4fa38709dc9",
        ('spectral-pq', 37, True): "9834bb1a6e148aae25dfd0dd736dd1fbe93a60126e4cbbd9863b1476f613d519",
        ('spectral-pq', 37, False): "e2137ba66d0214d44a57ce42aa35d4ed9cfcdf8a56136576256d30c20815237d",
    },
    'moving_object': {
        ('anchor-flat', 22, True): "e170f33b54cb0b82ee75893e9c23d29b3ef2f9527177d3dfa0d0112accaa0c48",
        ('anchor-flat', 22, False): "26938df9a5ce9e674ff0885c2f2c4b15b3607423d625b1e943f2368a646d510f",
        ('anchor-flat', 37, True): "e9a91e81458179fab6a762e7f4d83c231d8abbb32ac082375657c6d708d04cea",
        ('anchor-flat', 37, False): "63866dd1e7cdebe1c65c94e4ba138ca4a86c550b87796c50b88b2625b3a1ff33",
        ('anchor-adaptiveqp', 22, True): "ec63ef205a430c0fbff5bf5b708900099a7ffa58d6fe38450c6fee81cb423132",
        ('anchor-adaptiveqp', 22, False): "d23d5942775fd542873b9704876b9278e99a4f2b5369ed9f53c77f023174ab75",
        ('anchor-adaptiveqp', 37, True): "24957a6a0ac9484ec927a149c69af464a934759524fb568c7b73faf80e57f0f6",
        ('anchor-adaptiveqp', 37, False): "1450de2d6c5c6b0449e5f056e1b26b3dab311e1b37155c1137cd1eb094480bbd",
        ('spectral-pq', 22, True): "26e11da72e703f11f2505a08cc4c45482b37d5d962de11f3e77101d3c6470563",
        ('spectral-pq', 22, False): "00d1c1d2254cfcb4734fb24d1eee0176b8316a0c54b3ae8cc18c295d88f6802f",
        ('spectral-pq', 37, True): "968bd194c117400c3cf7ee408d3abee2d35461a81280c4e75298b05e2c1de919",
        ('spectral-pq', 37, False): "94cf70072469c8a7afec4c4e02a228e0572c4d550250d61ce7bf39314d61b075",
    },
    'moving_object@10': {
        ('anchor-flat', 22, True): "543c10658f67abbc4dcc58dd8f329502bea338ad43b9cdf3a77672edb1fffeda",
        ('anchor-flat', 22, False): "dc32f7617077765fe6fc849e56d824acb5db9f1310764b2ede0bee905e0e46ba",
        ('anchor-flat', 37, True): "dfe3032ef2239718ac5dfe8677d882461f85dfa6ea876ccc3e02dca46bb06533",
        ('anchor-flat', 37, False): "3237b9bcf880970b2c7051d97cd0fa4bfc7ab751926badc310a2b2c9039d17c1",
        ('anchor-adaptiveqp', 22, True): "7a1baa45a6ba45753f3f1f74c52bc19532cbf7b3e39532fe52c50a13b5b239bc",
        ('anchor-adaptiveqp', 22, False): "ab701bcc920600dd252123f6c4574f23aad8d211a764aad3acb9a99a7eb055f2",
        ('anchor-adaptiveqp', 37, True): "30c9ebbda5563f94cb501e9d7a08e25ef872731e9c7973977b1719630351441e",
        ('anchor-adaptiveqp', 37, False): "dac02d4110a23ac60fdbcd4b26d9934f36ebc6b379347cbdc9a2edca3b04c3f3",
        ('spectral-pq', 22, True): "8e8cfefafb2064264016725400c8492b7f3bd9b8000da37b56a0797c7abd757a",
        ('spectral-pq', 22, False): "a96ea34ac16dd6d427e9e876e4aa0c06e64264a88f93c9ff6d6b7f96f6ae1d22",
        ('spectral-pq', 37, True): "c60a3ae43c3ee58a6123a2bdd3023f810f3e066d35a6f2f86412ac240ee7b20f",
        ('spectral-pq', 37, False): "cafd75541758125c902b16416d8bd29e87ea41fdc0a3ac8aebeb22cb05e69fe4",
    },
}


def _ten_bit(frame):
    planes = tuple(p.astype(np.uint16) << 2 for p in frame.planes)
    return Frame(frame.width, frame.height, 10, planes)


def _clip(corpus, name):
    base, _, depth = name.partition("@")
    frames = corpus[base].frames[:FRAMES]
    return [_ten_bit(f) for f in frames] if depth == "10" else frames


def test_digest_table_covers_the_grid():
    assert set(DIGESTS) == set(BENCH_NAMES) | {"moving_object@10"}
    grid = {(m, qp, rdoq) for m in MODES for qp in QPS for rdoq in (True, False)}
    for table in DIGESTS.values():
        assert set(table) == grid


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stream_digests_unchanged(corpus, name):
    frames = _clip(corpus, name)
    got = {}
    for mode, qp, rdoq in DIGESTS[name]:
        config = EncoderConfig(base_qp=qp, mode=mode, rdoq=rdoq, gop_length=GOP)
        stream = encode_sequence(frames, config).bitstream
        got[mode, qp, rdoq] = hashlib.sha256(stream).hexdigest()
    assert got == DIGESTS[name]


# Many-CU grids: the first 3 frames (I P P) of the 160x160
# high_motion_translation clip at QP 27, a 20x20 grid at CU 8 and 10x10 at
# CU 16.  (mode, cu_size) -> SHA-256 of (stream, write_cb_csv output,
# write_motion_csv output); the CSVs pin g, H, a, D, F, z and the offset,
# which the stream does not carry.
MANY_CU_QP = 27
HIGH_MOTION_DIGESTS = {
    ('anchor-flat', 8): (
        "1dbda81e85133ffbfcb7775f53c0301f375c1e4d80b49eb4453b2f59f031f1f1",
        "c193d8aa5c3e8f7c927dc5af624741d774012ca55ca9afe843cb3b13f78ac517",
        "6739c3b43a37823bfe6913b163b228ac6571caecb0ac092a977d442a0aba910c",
    ),
    ('anchor-flat', 16): (
        "846a28069373eeed3fd1855f5cb2b5151a53409c38b545b172f7ca07facca4a6",
        "b8a6e66d3ddeaf87ca4cbc3cee6ff1daef366d3ce8d9811a4ec18e365b43b829",
        "2af328ccd76c1c7e20608e5a3f14bfaedfb74dfa1ad34fd1c29938f707933863",
    ),
    ('anchor-adaptiveqp', 8): (
        "98278a5ef56705795ee12d6f22542b2a508638570b81568da5c28e5db5f4a29c",
        "c9c90a834574f018447d49413c37443f0586367ee2e075f677a3739de1817487",
        "bc4fad4e8797759dbb02fede772084a5cfe38b20e071f1e42cdc6b3c906a02cc",
    ),
    ('anchor-adaptiveqp', 16): (
        "2d928881cb9c2498ba124a27ef38493dffd45ce3b37fec0e942dbded21948bb0",
        "cb164b97f7617639cf6d1e6fd2761c70ba8231381558544dfeba1979d7bad76b",
        "2ffea1854dc8f0415224cbdae9145c8f0754834e2eb7f8d2e036f4cd8b4a8ca7",
    ),
    ('spectral-pq', 8): (
        "d7e2679e39157fe398f68a2dfc2f27b3bc35a237cee6379fbd58b408fc8a6b23",
        "a8373292bac2b7e5175cbd5fa381da32e6f7ad2837a25aa8f4b6d5ada05915b7",
        "a5598810fc235dceb55060b249813f85dd4ff6aa84a1bac5f2360c33dde245b7",
    ),
    ('spectral-pq', 16): (
        "1119c9315ea37dd7897e28be152e8c4e381ee156d3ac5a0e0e7b116702863548",
        "4a8b25a2c1df51926420f8daec95c35776c6f78c20fb86487603f9a21c66f0e1",
        "c309c093bf4e740d3b5ed86400bc242f5d82a261b45b5114060827cd4a3da7e6",
    ),
}

# A width that is not a multiple of 64: the 200x136 top-left crop of
# moving_gradient(size=200, frame_count=2), padded to 256x192, spectral-pq
# at CU 8 and QP 27.  (bit_depth, rdoq) -> stream digest.
CROP_DIGESTS = {
    (8, True): "86d60d4af864ab4566285afa4fa5566e87b55269aac18a09407dbab296a52151",
    (8, False): "c262b2ce3ab57aff8e965e711786498075b3c2f4930332ad65f72c0c72346770",
    (10, True): "d7dd165f7f2af711366c52f28d464544ba9562c7adc3aa49be3cdf7528ca7b55",
    (10, False): "030d03eb35c07475d332e6015e91471639e79fe88080ebea683cf0cb52c822fd",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("mode, cu_size", sorted(HIGH_MOTION_DIGESTS))
def test_many_cu_digests_unchanged(high_motion_sequence, tmp_path, mode, cu_size):
    config = EncoderConfig(base_qp=MANY_CU_QP, mode=mode, cu_size=cu_size)
    result = encode_sequence(high_motion_sequence.frames[:FRAMES], config)
    write_cb_csv(result.stats, tmp_path / "cb.csv")
    write_motion_csv(result.stats, tmp_path / "motion.csv")
    got = tuple(
        _sha256(data) for data in (result.bitstream, (tmp_path / "cb.csv").read_bytes(),
                                   (tmp_path / "motion.csv").read_bytes())
    )
    assert got == HIGH_MOTION_DIGESTS[mode, cu_size]


@pytest.mark.parametrize("bit_depth, rdoq", sorted(CROP_DIGESTS))
def test_unaligned_crop_digests_unchanged(bit_depth, rdoq):
    frames = []
    for frame in moving_gradient(size=200, frame_count=2).frames:
        planes = tuple(p[:136, :200] for p in frame.planes)
        frames.append(Frame(200, 136, 8, planes))
    if bit_depth == 10:
        frames = [_ten_bit(f) for f in frames]
    config = EncoderConfig(base_qp=MANY_CU_QP, mode="spectral-pq", cu_size=8, rdoq=rdoq)
    assert _sha256(encode_sequence(frames, config).bitstream) == CROP_DIGESTS[bit_depth, rdoq]
