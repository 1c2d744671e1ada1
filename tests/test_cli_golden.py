"""Golden CLI artifacts: one small cell of each subcommand, byte for byte.

Every file a cell writes is pinned by its sha256, as the CLI wrote it before
its parser was built once per process and its report columns were written
whole; so are the top-level and per-subcommand --help texts at 80 columns.
The theorem-consistency table and the essential-norm estimate are pinned as
they read before each theorem condition was computed and classified once.
The schatten report's integral takes the parameters {"h", "C"} only.
A criteria report.json holds every field of the report but per_point, whose
rows per_point.csv holds: each is the file pinned before with report.per_point
removed and re-serialized, and the q < p consistency cells also take their
L^p norms of the averaging function once per shell of the polar rule.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from bergman_lab import boundary_ladder, build_kernel_model, constant, power_density
from bergman_lab.cli import EXIT_OK, build_parser, main
from bergman_lab.toeplitz import essential_norm_estimate

# a short ladder and coarse region rules keep each cell under 0.1 s
SMALL = {"ladder_rings": 4, "ladder_samples": 4, "resolution": 16}

CELLS = [
    ["lattice", "--lattice-r", "0.5", "--rmax", "0.9"],
    ["kernel", "--weight", "power_one_minus_z:0.5", "--degree", "12"],
    ["weights", "--weight", "standard:0.5", "--p", "2,3"],
    ["berezin", "--measure", "power_density:0.4", "--degree", "20", "--lattice-r", "0.5",
     "--rmax", "0.8"],
    ["toeplitz", "--measure", "atomic:[[0.3,0.1,1.0],[-0.2,0.5,0.5]]", "--degree", "12"],
    ["criteria", "--index", "bound", "--measure", "power_density:0.6", "--degree", "30",
     "--p", "2", "--q", "4"],
    ["criteria", "--index", "compact", "--weight", "standard:1", "--measure",
     "power_density:0.8", "--degree", "30"],
    ["criteria", "--index", "qlp", "--measure", "power_density:0.4", "--degree", "30",
     "--p", "4", "--q", "2"],
    ["criteria", "--index", "carleson", "--measure", "atomic:[[0.5,0.2,1.0]]", "--degree", "30",
     "--p", "2", "--q", "4", "--s", "1.5", "--lattice-r", "0.8"],
    ["criteria", "--index", "vanishing", "--measure", "atomic:[[0.5,0.2,1.0]]", "--degree", "30",
     "--p", "2", "--q", "4"],
    ["criteria", "--index", "consistency", "--measure", "power_density:1", "--degree", "30"],
    ["schatten", "--measure", "power_density:1", "--degree", "30"],
]

DIGESTS = {
    "berezin/7f1a916a6df4/profiles.csv": "15182ac742d577d3a8edfe298747fdf54d54714e07966f44c895c3385f0e96b4",
    "berezin/7f1a916a6df4/report.json": "b2814282c82715e40aebc5b4c4890973a1e358124e3e56a600e1db3be6173535",
    "berezin/7f1a916a6df4/summary.txt": "b765bdf82595f53ba7ca4ad0d2d57457c758a44468558feadb21c82fef9f7ce1",
    "criteria/13a5a6be92b8/per_point.csv": "56a0f85acfd2bd708e2796564e5bd76338b941d237c53674b01325696fa628b6",
    "criteria/13a5a6be92b8/report.json": "eb86636117391705c60e9596103262acc0405dccf66197fe341b127659106efe",
    "criteria/13a5a6be92b8/summary.txt": "7f595cc4f60c75b6958cde717ed68c88955b4f31786ef3cfd9857426f1872fcd",
    "criteria/31ec578ab3af/per_point.csv": "14661165bce430fc05910e8a6085d8e66f3198141cd070a1d998ac1984f1ad7a",
    "criteria/31ec578ab3af/report.json": "bb70089c4bc15fbe4ca216ed448fc3d670c0e50632db7138250667454ea5b981",
    "criteria/31ec578ab3af/summary.txt": "97e8d8044bd37a41a49d9ea3c48ac3d81b3cd24a0283bc458e13fae1047d3a88",
    "criteria/5b6c7dc7763e/per_point.csv": "9c2ff84d4a0a2d6bb46aabcccc7d6745ff40fb06757c0bdb712d8624bb065b62",
    "criteria/5b6c7dc7763e/report.json": "9d19cb604425bbba53e9e9d55e43cc40f58cc94f25261f11e24453ef7a88ed32",
    "criteria/5b6c7dc7763e/summary.txt": "e20d28e03b4bd9707834f730fdd4064cae0a842379c1870f12b9fb207b7369ae",
    "criteria/86ea67c680a3/per_point.csv": "922eb35a80bdecbbf1f32251b2a13affad935faf0661e1ecd14b5f9c5987ac41",
    "criteria/86ea67c680a3/report.json": "774ca83019a11893c192a0678c27b2bee66fb994cfff8a1d38f86361cf1e5fa3",
    "criteria/86ea67c680a3/summary.txt": "c75e774075989c4868ec2df8994e77aa53984422b409b32d66bb857c0f43676c",
    "criteria/b133f9880a9d/per_point.csv": "386ee99aef0903725cd3ce2dff8ce11dcac0f778756506cb9f8fa88070e581a3",
    "criteria/b133f9880a9d/report.json": "55c2d1b880ace5a2152583a570a8b26df1b4b0db0dc797ef180eedf57af1f06f",
    "criteria/b133f9880a9d/summary.txt": "ecfa70b5b7883eda1c8daed9c1e0428924279fba5b44e3c92c7e4a8119139d52",
    "criteria/ef5fbbdd530c/per_point.csv": "14661165bce430fc05910e8a6085d8e66f3198141cd070a1d998ac1984f1ad7a",
    "criteria/ef5fbbdd530c/report.json": "3ecc4f74a86b1ca0b4f316d1a4817e9b451a5aa11b223a140b3d960bd08f2f07",
    "criteria/ef5fbbdd530c/summary.txt": "e5c980bb53706ab07dbc0cfb063e58f2248a9cfa311e6f2da94755d35b8522a5",
    "kernel/c296ee340dfd/model.json": "0b537d96d6b0eafe2c4d847261186c5f6ae4aa8c30f3e8723abc69554592e686",
    "kernel/c296ee340dfd/report.json": "7cb09a3d1a6d9025e9352401cb54fa39eba402d187018abc00918623cd729b5c",
    "kernel/c296ee340dfd/summary.txt": "f907a07757dbfb17f1e286b83ce1d227b606caf9086267b38d585e92f0465f3d",
    "lattice/f07902a63363/lattice.json": "84ec09d29f9ae4d48bd707d66badb01450a3261cf78e4950dadfc29d224a047c",
    "lattice/f07902a63363/report.json": "41b1582e992c9895958fb9ce02fd35b9de251403eabbece51cce4f4fccdcb740",
    "lattice/f07902a63363/summary.txt": "521c7a04660db74072099a03caf68b67edee0850fc821cd3853d9c071a348b49",
    "schatten/ef5fbbdd530c/report.json": "32c41e7ae1eb9e400069fb0afcbaefff737476b2994e4e4e8f5d3e5ff3f40e3e",
    "schatten/ef5fbbdd530c/summary.txt": "ad4584556062f2ba2fab187e98b500d4b17109bac9f15cd096872b2e3dcc99ba",
    "toeplitz/f7b377e2af1f/report.json": "1c6217c06dfa6c7fc46d2ff01e94bd802907f819fe18f5b22921d4cb37f0472a",
    "toeplitz/f7b377e2af1f/spectrum.csv": "d87541c3c25b6f1cbb24b58a6221074fd2348b7dfb4f1ef33337691ed62d674d",
    "toeplitz/f7b377e2af1f/summary.txt": "b9260893fb26595577576e0bfaa8b9b8b89d6cbc94de7a0bd87f34ca157d8758",
    "weights/a75d9457a302/bp_per_anchor.csv": "6a3a9f97f32ab9fa7048da588d21cde47500687e54cc6e85ac2e5faafc749992",
    "weights/a75d9457a302/report.json": "c3c076f8426298689b5340878a59aeb002f791688947ce979dd43d41065bbbeb",
    "weights/a75d9457a302/summary.txt": "ed257a5f2bfdf1b77ed36b488b18d2eed660a63709f4b01654f4fcfec8153071",
    "weights/c2dae0f2857a/bp_per_anchor.csv": "9cdd776ffeb874604385e325714fb009fb51a503ac2b0b13b9eda2da878cfcec",
    "weights/c2dae0f2857a/report.json": "2aaa6f6b158177a811f3079dc7b6d6cedcad1ba122f0eb7e7464ae452979496d",
    "weights/c2dae0f2857a/summary.txt": "cc82c99ff57fda81f6af9081a7098c4020da561d554e9ea529d32b344e03fb72",
}

HELP_DIGESTS = {
    None: "bc75212e4e56f0c73c3de2ff1433584eeea22aa3ead94c95bcd06070e529b145",
    'lattice': "d3bb3fa67d5f481726c021b750230224c5505391002fa21969cd589e5e600c64",
    'kernel': "ce176549f926fa253b8958948770b56feffe56e6095c171b525448505b904f9f",
    'weights': "b5afd729c8880976a23798892ea7e18f29a3f55767140c585ff92aead0741c2a",
    'berezin': "c64c673a3f81079bbbf2c4b54d2fdc0ae7508fbe62348148ab6c134a55ff8c36",
    'toeplitz': "e69903e81027446b25aeac526eb2a9b913fff34367681088be741c010a6fafa7",
    'criteria': "d2995dba2fa2bcee90f2f0744271dd793d025e1380d0afae125aeeee573390aa",
    'schatten': "88883efcfef64dda746de16c33d84ea7047a56b8782d940f7ad9ebbf68437fc0",
    'verify': "2da6ecfa77db08fd13648d5e075ce89528b55bd8eb30c4cda28ff97446cdb04e",
}


# consistency at q < p (an atom, a power density against standard(1), and q <= 1)
# and at p <= q with q <= 1, where the Carleson condition is not applicable
CONSISTENCY_CELLS = [
    ["--measure", "atomic:[[0.5,0.2,1.0]]", "--p", "4", "--q", "2"],
    ["--weight", "standard:1", "--measure", "power_density:0.7", "--p", "4", "--q", "2"],
    ["--measure", "power_density:1", "--p", "2", "--q", "1"],
    ["--measure", "power_density:0.6", "--p", "0.5", "--q", "1"],
]

CONSISTENCY_DIGESTS = {
    "criteria/2d33a1e1588f/per_point.csv": "14661165bce430fc05910e8a6085d8e66f3198141cd070a1d998ac1984f1ad7a",
    "criteria/2d33a1e1588f/report.json": "0a21c6fcad21bc1d933f0159d797b8383ebc9a61391ca8ee8291906d145c5069",
    "criteria/2d33a1e1588f/summary.txt": "8687bf09e02f101f911c2ca8374308677cc27cb1e331f935711e644fb6988e60",
    "criteria/364c9855a906/per_point.csv": "14661165bce430fc05910e8a6085d8e66f3198141cd070a1d998ac1984f1ad7a",
    "criteria/364c9855a906/report.json": "a67cfe4aad94d69d0bfc911f35e11a1c653e32e6aa1bf09deda43fdd773d8d25",
    "criteria/364c9855a906/summary.txt": "8608df1f6f66cc6b06a20103bd2e40aee70d47c93abe080136af82f89db02065",
    "criteria/a7574926f8ce/per_point.csv": "14661165bce430fc05910e8a6085d8e66f3198141cd070a1d998ac1984f1ad7a",
    "criteria/a7574926f8ce/report.json": "eea7366694f041d281a61c43169499b8df0e807fab66367a6d6653f5a0574b04",
    "criteria/a7574926f8ce/summary.txt": "76932534dbdf2356ac452e8c188b83c45e4e72b6efddc6f784b6d764ba4b28f4",
    "criteria/bea7c896458c/per_point.csv": "14661165bce430fc05910e8a6085d8e66f3198141cd070a1d998ac1984f1ad7a",
    "criteria/bea7c896458c/report.json": "d8362b7162ad250e61c64e45176a573edb5edd4534a4aee781918daea2a0ead3",
    "criteria/bea7c896458c/summary.txt": "1a2360a5e43ed3dfd14b8328b6fe9c603bf98edd66bcc6c7fc5febc54d6d2ed4",
}

# essential_norm_estimate(power_density(t), constant(), p, q, 2, 0.3, boundary_ladder(4, 4),
# degree-30 model).to_json() by (p, q, t)
ESSENTIAL_NORM_DIGESTS = {
    (2, 4, 0.6): "e56be4f08bb1d24b976d5ba4ca753d8fe634b599e56cdc85e81f3ec7b4ac9d15",
    (4, 2, 0.4): "ff274a2ff9d95b90ca49ef994f30d2386d60e5bc1684682b966112806b64d983",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_every_artifact_is_pinned(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for args in CELLS:
            assert main(args + ["--config", str(config), "--out", str(out)]) == EXIT_OK
    got = {
        p.relative_to(out).as_posix(): _sha256(p.read_bytes())
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert got == DIGESTS


def test_consistency_reports_are_pinned(tmp_path):
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for args in CONSISTENCY_CELLS:
            cell = ["criteria", "--index", "consistency", "--degree", "30"] + args
            assert main(cell + ["--out", str(out)]) == EXIT_OK
    got = {
        p.relative_to(out).as_posix(): _sha256(p.read_bytes())
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert got == CONSISTENCY_DIGESTS


@pytest.mark.parametrize("p, q, t", list(ESSENTIAL_NORM_DIGESTS))
def test_essential_norm_report_is_pinned(p, q, t):
    m = build_kernel_model(constant(), 30)
    rep = essential_norm_estimate(power_density(t), constant(), p, q, 2, 0.3, boundary_ladder(4, 4), m)
    assert _sha256(rep.to_json().encode()) == ESSENTIAL_NORM_DIGESTS[p, q, t]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse lays out help differently across versions"
)
@pytest.mark.parametrize("subcommand", list(HELP_DIGESTS))
def test_help_text_is_pinned(subcommand, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(([subcommand] if subcommand else []) + ["--help"])
    assert exit_info.value.code == 0
    assert _sha256(capsys.readouterr().out.encode()) == HELP_DIGESTS[subcommand]


def test_parser_is_built_once_and_keeps_no_flags():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["criteria", "--p", "3", "--weight", "standard:1"])
    second = parser.parse_args(["criteria", "--q", "4"])
    assert (first.p, first.q, first.weight) == ("3", None, "standard:1")
    assert (second.p, second.q, second.weight) == (None, "4", None)


def test_consecutive_calls_are_independent(tmp_path):
    # the second call sets no --rmax: it must take the default, not the first call's 0.9
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["lattice", "--lattice-r", "0.6", "--rmax", "0.9", "--out", str(out)]) == 0
        assert main(["lattice", "--lattice-r", "0.6", "--out", str(out)]) == 0
    rmax = sorted(
        json.loads(p.read_text())["config"]["rmax"] for p in out.glob("lattice/*/report.json")
    )
    assert rmax == [0.9, 0.995]
