"""Golden deal outputs: `crthss deal` writes byte-identical files per seed.

The worked vectors elsewhere use the affine test OWF on a micro ladder; this
pins the SHA-256 of every file a deal writes on a 61-bit ladder with the
hash-based OWF, for all three schemes, so any change to the dealing path that
alters a draw, a lift, a mask or the file encoding shows up here.
"""

import hashlib

import pytest

from crthss import CompactSequence, Hierarchy, SchemeParams
from crthss.cli import main
from crthss.fileformat import canonical_dumps, param_file_obj

M0 = 2**61 - 1
# the first nine integers above m0 that are pairwise coprime (and to m0)
MODULI = tuple(M0 + d for d in (1, 2, 4, 6, 10, 12, 16, 18, 22))
SECRET = 1234567890123456789

CASES = {
    "dhss": (Hierarchy((2, 3, 4), (2, 3, 5)), 11),
    "chss": (Hierarchy((2, 3, 4), (2, 3, 5)), 12),
    "ab": (Hierarchy((5,), (3,)), 13),
}

# recorded at the commit before the dealers were merged
GOLDEN = {
    "dhss": {
        "dealer_secrets.json":
            "b8bb2845b72cd1440db772b59a8c8b7014601ece6fb4be2101803a33a576769f",
        "public_bundle.json":
            "11def5b11eda05fab372c89896e956431f9e7775c90e1b737ec2078177d7dc05",
        "share_001.json":
            "0a5d70b1f2f64ee86ca20887b059a420c76abf1ec5695382a15c01fa9629aac0",
        "share_002.json":
            "dd679bdd054bfa1eaba389592c51fd013ddb62537d443d6bf7105d68eb3b7650",
        "share_003.json":
            "429b51b2d4935f507d12feed8fe4e9a767b94e92fd6d868fbc8cf344feda9901",
        "share_004.json":
            "afbd9f37c50279304f053b62c84d581d955f7bf7263eb520d7c4b3baaa5fc5e4",
        "share_005.json":
            "49b75603ebca7777cfc7c7f03120d1c16f3bcac08f132cc5ce65769e559907fa",
        "share_006.json":
            "b55f99a2acb60c30127d0f941a3a9a6fc12a1e64c3b6f0e494604888d57c6fe9",
        "share_007.json":
            "ad8913654de6a568c0bf74e1b28f78c244e00ed9b4c77f66366d221dfb604f25",
        "share_008.json":
            "ea145362863481f6b3abadf2d79d46e5b3887445ee77b4db157eccf07f3d0f86",
        "share_009.json":
            "0b3100119eb18829e6013d42d02d9fdf432de2b55df46b125c220d3753790045",
    },
    "chss": {
        "dealer_secrets.json":
            "4c7d85fd3a3b60855c9f1425713fd7d6420c48880af1a21c0dc7ab483bfcf97b",
        "public_bundle.json":
            "5b0685f771f4cf575199ecc75ea8bc2b8abfe47f7b43a842e376a2e674fa62cc",
        "share_001.json":
            "0072ec8c817e19675eca4fc1d4396318223644064e6e59fa7547040a6447e71c",
        "share_002.json":
            "d84685ca37dec4b4e58ca96c1cda1c443add908134dbac5f070ac8d2e2991ae0",
        "share_003.json":
            "2bae39ffe56c0b715c36d870e8487d7f8ba93eb5c7b434b828294ed1394b79b1",
        "share_004.json":
            "4216871e5817ea04dea92e5d36859f6a1f4762f9ee3bf9409ad4f2b13994863b",
        "share_005.json":
            "7d8c2bd35daa758046e4ab79bb0f54772a028cbbb4b0e9a44f4ed87af507dd2b",
        "share_006.json":
            "8c3f0f43155b4d3a73525172d65d0a7594af127e26c4def50c0b64914191ff1a",
        "share_007.json":
            "552f5e579d8dcb1aac2933625e478f6b7df1a5825d5b3beca067fb06759bd154",
        "share_008.json":
            "6dc0e16c79aa7554e384add273d500884d06ff9461b2f15fd8a0f38940eade47",
        "share_009.json":
            "298f04cda5242bbcc44437ac6b9f2770b40618110f219444cb19d5060a4c947b",
    },
    "ab": {
        "dealer_secrets.json":
            "305adf2e93ac0cada3f08634d183c52c0b923625cc880c41bca459b91e9f435e",
        "public_bundle.json":
            "26f4be6fb9ec3f3d176c112a915f35bb2474d87a99f460efc8800c6a73b6fdac",
        "share_001.json":
            "bf5c6b6399258d4f851ba8dab6f072d34d94f090cf5237a4a718082c1bcbe91d",
        "share_002.json":
            "b69b001843020503b8f58bb09b7e0a059fab0062858f62a7d1e71fee326748f6",
        "share_003.json":
            "5c9e3bf971f98b2c7b593ebecf5c987571d351cf9684037c7e1170a897b445c1",
        "share_004.json":
            "182bb24faaa39ec55728b5ec08f164aa2520096edd5260d09865dde7a3d4681b",
        "share_005.json":
            "49242225cde02d09b1cfd4b4d10c11d51567fe42028ffa24fccc0c8dfbef2182",
    },
}


def _deal_digests(tmp_path, scheme):
    hierarchy, seed = CASES[scheme]
    params = SchemeParams(
        sequence=CompactSequence(m0=M0, moduli=MODULI[:hierarchy.n]),
        hierarchy=hierarchy,
    )
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    out_dir = tmp_path / "deal"
    code = main([
        "deal", "--params", str(param_path), "--secret", str(SECRET),
        "--seed", str(seed), "--out-dir", str(out_dir), "--emit-dealer-secrets",
    ])
    assert code == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("scheme", sorted(CASES))
def test_deal_files_match_golden_digests(tmp_path, capsys, scheme):
    assert _deal_digests(tmp_path, scheme) == GOLDEN[scheme]
