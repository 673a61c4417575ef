"""The equivalence corpus: a fixed grid of small configs, each run as a
socketpair session and as ``run_pipeline``.  Each session must reproduce
its pipeline run (same key, Bob's ledger equal to the pipeline's, both
transcript audits equal to the ledger's leak total), and the key and
ledger digests are pinned.  A change that moves keys or ledgers on purpose
re-pins ``DIGESTS`` and says why in CHANGES.md."""

import itertools

import pytest

from cvqkd.pipeline import PipelineConfig

from benchmark_digests import digests

GRID = [
    PipelineConfig(loss=loss, var_mod=(None, 2.5, 4.0, 6.0)[(i + i // 4) % 4],
                   n_symbols=20_000 if holdout else 10_000,
                   n_bands=(3, 6, 4)[i % 3], seed=100 + i, holdout=holdout,
                   doubled_exponent=doubled, security_bits=(5, 12)[i % 2],
                   cascade_passes=(2, 4, 6, 3, 5)[i % 5])
    for i, (loss, holdout, doubled) in enumerate(itertools.product(
        (0.1, 0.25, 0.4, 0.5, 0.6), (False, True), (False, True)))]

# sha256 of key_bytes and of ledger_text, per GRID entry
DIGESTS = [
    ("b40edb3e058e5f7a62847e266f080db071902d28fea4cc59981ca5537c7dbc37",
     "890d615ac0d5f159ee8b592a36b2c2b1f1962a80ba91c3b80b1a652d22930db4"),
    ("725e1c6911008168d89ceae18f7169a0b3a23486cdc9cc24524f631e23313ae2",
     "b3836f2a574902ff26c1ae6a3a443467b9ed31f75a53594e445213a15f4c990d"),
    ("7370dfc486cb6c0456f15169fa9387e78af0650c998e2f4e029b71af3dc0a7c1",
     "5c0f1f0969b7c5bc8bfec75915687c011bbf93a8292faca580034c927f4d4bfc"),
    ("b7a1c24e96c9856a19f3184d3558da4e66615b56785fcd86f972f4ac129ab3fe",
     "a0322912f758d332cd2e55d46e6eea494d86a2ce2566003bb93435b55724083a"),
    ("b2fe40141370a86aeba3f6eb8e400c1b21b6f391317a1df4c7811cccaf360998",
     "48a915082d17c4cc21f3564176bab5adb2cd796e9b3b13b4d0542d5f27a3fc25"),
    ("0f1d88f35b8251c15fefccaa869c63555b1cb425258593f9e317f4cd9e1c9cce",
     "55fb11fd2e0e51028caabe12d22692642a9a0c29c6286cc32002d37f889a566b"),
    ("28cbdca4a1e98c495fc0c5ccd6c6857203021d7892d1c260bbe43d32f8e9f8bb",
     "272b6f42a815324645f7d1155393e6e47d38fce0a326f9b5d9ac0b15de3dd78c"),
    ("c1badc6c18579c8eaaeb36420f922914f1eaa7b8df1cf7186d3c9d32451b934b",
     "80808b4ad7c7bfa5977c3d533fd202fa2a3972401f456c310dc01ed360312759"),
    ("163844fce47482ede29bcfd23a5081d5d7a949dca23b4e66ca5b0440f9be1461",
     "8ccd067b1ed1187b9ae5b33a18d5e1acc70e38d2519362f801f0255357293c69"),
    ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "54e4cdb86359cd5ce1b5e14a439cfbf052b130843c314d2c2ce1583c7808dcc7"),
    ("e1896c0be3525df43c42f6b51eac4e8e965b253eab4cfafbadbffae40ae99ea7",
     "9f7f9b68c5761077485800f80a6ade1c5b543290b7de61ab873626c5af0ddf5c"),
    ("3e665b16daf67e69103ca940da02c8eaaf024b096219aad3dc2620b7611aeb22",
     "5858f1a8bb75cdaf57ad8f296e8f485b8f11ccd642f8232e974525e0a5d07fc3"),
    ("f9f2a00c548a5455f5bb663947707d13d07e01f103f14a73796458ba830a442a",
     "4ed6f9a2cc6897eda66ce299d93255bdb4307fb32b2c7c12d62c3a70c9aadf5f"),
    ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "c9a465d331756a82c51f3d13a355a70ad9be791229d6900c46a5caf36151faeb"),
    ("f4b7c11e3d39b3c6057ee8be6edae8af2722d19238923dfbb402b968ead6fbdc",
     "eb4e61fa190f2657d9500c0de1d4cf1401f8269a19db433490fad7845cf2215f"),
    ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "5fa4294c18f427dc18165411f5b5abe76b61570b2300c95f4af3c718f5a1d2bc"),
    ("ac151318c9188134824271119a5a55c52c1588487e292431af1b9107f8419122",
     "76490ecb7a91f14992eabff0d6885a26dddcd06a9e6ef360ef00eb0c3e62fe38"),
    ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "9a038f6d9e0943afd00a457d5f6a83ed2251e5364808ee0e35a5380a78c945b7"),
    ("a1ccbe1b2de420569de18d10cd9e2d2729331b4efd7b5339b125493fa79b2bf4",
     "85c2a25b6cf4a90f18bda9385ddba152f7d63872e32879be29d5f43d01530271"),
    ("7370519f3e0ee28ef6aa8d58d9349f7911361e197171bd72b82d24573594121e",
     "c79c1c56bfe88bec8fdb6281f819a167fc7876c827c51baba0a43b9203ad6083"),
]


@pytest.mark.parametrize(
    "config, pinned", zip(GRID, DIGESTS, strict=True),
    ids=[f"loss{c.loss}-bands{c.n_bands}-seed{c.seed}" for c in GRID])
def test_session_reproduces_pipeline(config, pinned):
    assert digests(config) == list(pinned)
