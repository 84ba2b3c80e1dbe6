"""Golden gen-params outputs: `crthss gen-params` writes byte-identical
parameter files per seed.

The digests were recorded before generate_compact_sequence was written as a
single loop. They cover the benchmark's keygen grid (16 bits with one shape,
32 and 40 bits with two, theta 1/2, seeds 1-3), one theta = 2/3 file and one
k = 3 file, so a change to the prime search, the candidate order, the
coprimality test or the file encoding that alters one byte shows up here.
"""

import hashlib

import pytest

from crthss.cli import main

SMALL, LARGE = ("1,2", "1,2"), ("10,40,150", "5,20,60")

# (m0 bits, (levels, thresholds), further options, SHA-256 of the file)
GOLDEN = [
    (16, SMALL, ("--theta", "1/2", "--seed", "1"),
     "ff751b030e10edf0ff97b8ce03d4a14f008d326e1f7776a63bba5d8654c95ec8"),
    (16, SMALL, ("--theta", "1/2", "--seed", "2"),
     "3da6eb93dba63661065cc6646c4b5f6f1140f49dcd1af09d7e5d562c9f88d694"),
    (16, SMALL, ("--theta", "1/2", "--seed", "3"),
     "2cfb7ff2c75ab7cff608e568c542edafb41105c1547b004883936271682872b2"),
    (32, SMALL, ("--theta", "1/2", "--seed", "1"),
     "4b61c6c7d9c6d9050565dc8815c8fa3e166fa07493f103f704b37b879d59f5aa"),
    (32, SMALL, ("--theta", "1/2", "--seed", "2"),
     "a44767fcaca435ff85bc9188e982960465dbe83efbcdb47bdd349a5f47713b9c"),
    (32, SMALL, ("--theta", "1/2", "--seed", "3"),
     "c7cd6b95f63fa169c1ebb47b76e00542a342aa70dac6f774fa50dcf363a6f7cd"),
    (32, LARGE, ("--theta", "1/2", "--seed", "1"),
     "d0a404caefc26521f1131553eed0864b47c6530acbae0ca813914ae41759ae17"),
    (32, LARGE, ("--theta", "1/2", "--seed", "2"),
     "7e838a2d4b51107250c164340c1906f73da7f90e1e862efea9ec55b56374d16e"),
    (32, LARGE, ("--theta", "1/2", "--seed", "3"),
     "e9ab4ebfd64d861143035ba0bc777fe48277141c68147829189371cd94696d50"),
    (40, SMALL, ("--theta", "1/2", "--seed", "1"),
     "6fbce5b552a94c2f360f81032e511c7ad5a7505a3e923c8ede0aa9a3f4d195dd"),
    (40, SMALL, ("--theta", "1/2", "--seed", "2"),
     "5c6047fb91d450c0e670c47b11a600a784d65fa59be1d1eadd38509e0392813f"),
    (40, SMALL, ("--theta", "1/2", "--seed", "3"),
     "7ccd9e204150bf392d187f305ed66521ba99132c49d06926b7718aa029719d10"),
    (40, LARGE, ("--theta", "1/2", "--seed", "1"),
     "3241a6e86064b4c259d51118cd72e095eef6ffccad0c9f64621891d7cca261b1"),
    (40, LARGE, ("--theta", "1/2", "--seed", "2"),
     "e44fa0731e16121839efd50e7c3c490d91b25829c9f83c0f56548fce53804f97"),
    (40, LARGE, ("--theta", "1/2", "--seed", "3"),
     "6971b5f5b660118938ecabf5f1cd23c4818ff8f5a3172f397b77e371dd0c77ae"),
    (32, LARGE, ("--theta", "2/3", "--seed", "4"),
     "27e7cfc3732238b3dd4d5d09a447999cca88599a52ac55af6d19532ed3f07602"),
    (40, LARGE, ("--k", "3", "--seed", "5"),
     "0c9103f20465273726b9bcb435f6ae43a702bf70392c5baee1897637e3300cdd"),
]


@pytest.mark.parametrize(
    "bits, shape, extra, expected", GOLDEN,
    ids=["-".join((str(bits), shape[0], *(a.lstrip("-") for a in extra)))
         for bits, shape, extra, _ in GOLDEN])
def test_gen_params_files_are_pinned(tmp_path, capsys, bits, shape, extra, expected):
    levels, thresholds = shape
    out = tmp_path / "params.json"
    code = main(["gen-params", "--m0-bits", str(bits), "--levels", levels,
                 "--thresholds", thresholds, *extra, "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_gen_params_exhausted_interval_message(tmp_path, capsys):
    # (97, 106) holds eight candidates, and no eight of them are pairwise
    # coprime: the refusal names what the pass placed, and nothing is written
    out = tmp_path / "params.json"
    code = main(["gen-params", "--m0", "97", "--levels", "8", "--thresholds", "1",
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: interval (97, 106) yielded only 4 of 8 pairwise-coprime values\n")
    assert not out.exists()
