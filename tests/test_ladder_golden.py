"""Byte pins of the ladder and window outputs.

Each value is the sha256 of a file the CLI writes with ``--out`` (or
``--system-out``), so that any change to a symbolic trace, a base-degree
orbit, a window's points and frontier, its audit, its exported system or
the decomposition of that system shows up, in the style of
``CENSUS_3_SHA256``.
"""

import hashlib
import json

import pytest

from fixfactor.cli import main


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# `window <term> --family-cut m --strand-cut j --check`: (report, system dump)
WINDOW_SHA256 = {
    ("strand", 3, 3): (
        "cda7ddabde3afa74057d6aff962e713674d1f45d0c0e26e4ffa8a534bb4e1043",
        "98acf3959c0f018b968dc4536a706e031db8ae916b03bb81af7c0d271368749e"),
    ("strand", 5, 6): (
        "66b6b17a514304a5128a585f8309e9d5d8595598aac52cf430e1fc64e323427c",
        "9538db2b7cbf6653ef98992772c516966c43a2faa42d9fa4458fce9edc78895c"),
    ("cat(strand)", 3, 3): (
        "10afdb92efd3cb43fa1a849d6d835c558c6bb10e90abbe6d5ccac7e38d2db469",
        "d49dc80f7745d3bbfab7f89b53af271ff5453c0a741fc9c6f9ae231d7709f52b"),
    ("cat(strand)", 5, 6): (
        "d6e2d8f282de0b48a29a01528fcf4889097fbb6434fa5b42548e77b8b6636dee",
        "4cd941547ae0db974f85be8dd949a467fa9c9151578e7033779af10f7f96a773"),
    ("ramp", 3, 3): (
        "ba32cb70ea27777933ff61ad846f88f85f1054ba44c22f5e41c3d6b8dbdbcc3a",
        "3d4b2044fb666c40fa0fa69034f3a30d8bff2fb2ba08fb929f908e6c254c1167"),
    ("ramp", 5, 6): (
        "291497aecbad862e5432fb912f0c28ec7c7d811468f293801a2c4661dad41a72",
        "cfe78fed8e9b920970afc851d5562720ba645842eb621935d5b87c97bfaf3a4a"),
    ("cat(ramp)", 3, 3): (
        "96fba07b41469bf823073bcf63a28fef1b599ab95495e80315745bc0d07a58b5",
        "14c0a1350896ac3f5ec16df02059a54cd39e5424f67429f42316efc6faed9762"),
    ("cat(ramp)", 5, 6): (
        "48e421642ab2114f11dcc1df790e89207f5c790d0e710b1b3cbba876ef4a735f",
        "1f01e67f76d29602303bc5af8835e4d581db5ccfa6c9d5682d812549fdd22818"),
    ("cat(cat(ramp))", 5, 6): (
        "c1a5f3edbaa296967af22a6b1901a91f533ae92944243ff0efebbbf479cc4059",
        "936375d9e7b9b1dc3be65b35d42927e6ad7167c0512db25059a67fb992cec952"),
}

# `decompose` of the system that `window <term> --system-out` exports
DECOMPOSE_SHA256 = {
    ("ramp", 5, 6): "50f743852844900d1e30519f3ddb1b268d5f339eff7fdfd7f15e9c1b80ec782f",
    ("cat(ramp)", 5, 6): "7b2af7c7050ff31bffa97a328648fa372b6d6189b059f2f09d263696dc89917e",
    ("cat(cat(ramp))", 5, 6):
        "9d39055840da488abb17bae515017d6adcb372f5926f4ba0ed0c83098e51716b",
}

# `ladder <term>` (trace up to the default --max-degree)
TRACE_SHA256 = {
    "strand": "1ee3535d49184295c9dd5e076751cd8170d3cdb9e97cb60edc8526b66b802c47",
    "cat(strand)": "838743329c7859980d58a67c16319aa85f3d5e906f9c0befd19262f3bccad15a",
    "ramp": "f972fb9b9c5f7a48a168faaa792cc62036e48399dd35f75a40269f38231d5f1c",
    "cat(ramp)": "855737153e4f24a7cd47fa1ebea3651908dd8fb9b6c4706b9040c3d9b7c9673b",
}

# `ladder <term> --aorb0 <locator>`, concrete and generic locators
AORB0_SHA256 = {
    ("strand", "A"): "ccdf5dea1bbd2342ee13e05a6720f82b6b42692dfc14d9c2c7696f8e7bb620f9",
    ("strand", "R"): "8b354eddc1a71c071db766d085b9b426feeb6250e2a1abc631460de3d9a832f2",
    ("strand", "z:2"): "9a4b4c994a4ad6c74c19f7805d5e54e8717a43ef60995f991bcd5da47fefd783",
    ("cat(strand)", "c:0"): "b9314996cac5ff9188bf386f4afb09307bb2525c75e30fbe47dcfe21a733585e",
    ("cat(strand)", "c:3"): "b086e2899945abc9bc417f512b667f2b53e23311dd6b5efe7b8fd9ec8e5104f2",
    ("cat(strand)", "c:m"): "1ac151b0faa67e1b5ced1a08b21190f733b14b5da7309ed5d374db565fcda2c0",
    ("cat(strand)", "S:2:-1"): "d557ac843f3120841aa780693ed45f61f9a623a612c94b336d12b02bda597fc7",
    ("cat(strand)", "top"): "d6781322d1cbbd4ceb37cf5e72dd50d437c60544d27638406b5b028ca7bacfaa",
    ("ramp", "B0/c:1"): "713b2ab4ad3b06e7c28112eb78051928544dac3dd094243dae5e3fdaee5394cb",
    ("ramp", "B1/K0/c:0"): "e27c384cb4852aba1927f83f41b67d2ec1b01ef6d601fcf0b0bec41e919c49ad",
    ("ramp", "B2/K1/K0/c:3"): "0c0223f5c430e8417cc000a140db93e511623339946924ca8028b6ebd539b2e8",
    ("ramp", "top"): "aaff3bb96884c10c884b36bd359fd33d5b106e31b2e4492ab9f65c6fda057446",
    ("cat(ramp)", "K2/B1/K0/c:3"): "293a77790812d157cefb01d575e33ecd2fdfae8d429a125cc8267c2497e43817",
    ("cat(ramp)", "K3/B0/S:1:2"): "43fb7ba3ca2af166a7daf6973f9c8330da9e30abeabb3972fba994242803cad3",
    ("cat(ramp)", "top"): "ca70b99c5ca245e128a06a0e2c2d4d02a0e0a24ac671e92e2280630d9d7bfa9d",
    ("cat(cat(ramp))", "K1/K0/B0/c:0"):
        "83e6fd55bca2d9bf5328eb465dc570a4dc2b5ad6eef9829fa4696de51059b998",
    ("cat(cat(ramp))", "K0/K2/B1/K0/c:0"):
        "cd18a94465cf75aa68bc904d4f53f54caf4e0205606ecc35bea17cccd8c394b9",
    ("cat(cat(ramp))", "K0/K0/B1/K1/S:1:-2"):
        "71e0c7da36d1ff1b388412ea02d7c7e1a3b9f1f33a85830dfbf5d5ff8c3a8507",
    ("cat(cat(ramp))", "top"):
        "857676c32e4b0cad2e6cff180bd6a54e2e26295b7147a1ed09441766d80e2bf5",
    ("strand", "z:m"): "e0b2e854df5867f878a4784a9da8141b35a05d5fe7373ca3c54fc7505fe6cfb3",
    ("cat(strand)", "S:4:m"):
        "6d7138b75531aeb11afcff78e1519e4f389dc59aa1cc787c37f79102df3edc7b",
    ("ramp", "B1/K1/c:m"): "977667ee0e74be175daacc7df57cbc58690807535f93b5762af5e60612c076dc",
    ("cat(ramp)", "K2/B1/K0/c:m"):
        "de341bff88c22ef8e2261d01cfab39ca8c937b11926bea57b8e0adab9a47b173",
    ("cat(cat(ramp))", "K0/K2/B1/K0/c:m"):
        "c706b076f7ddfaed4084e9e4fe059e397a57a9e648b615c5d25878542aca8c98",
    ("cat(cat(ramp))", "K0/K0/B1/K1/S:1:m"):
        "ee20fcefb4fea0beba73081c44dcc13bea43719ac9a3041379b875caaad189eb",
}

# `oracle` of the 3,459-point `cat(ramp)` (6,6) window dump, and `lyapunov`
# there of `top` alone (not stable) and of the oracle class that holds `top`
# (41 points, absolutely stable)
DUMP_ORACLE_SHA256 = "852c4804c57a526509106465aef2bbc5d609278469fcb842c617b60fe1826b85"
LYAPUNOV_SHA256 = {
    "top": "96bea15101c7f28c0ec1e84e341441ca6f62c1ffb5d1533823ddf4d3ce3273d9",
    "class of top": "98d236030aee258d0092be1f072d01354dec080cce6c97040549262c19b7f0b8",
}


@pytest.mark.parametrize("term,m,j", sorted(WINDOW_SHA256))
def test_window_outputs_pinned(tmp_path, monkeypatch, term, m, j):
    # relative paths, since the report names the file the dump went to
    monkeypatch.chdir(tmp_path)
    code = main(["window", term, "--family-cut", str(m), "--strand-cut", str(j),
                 "--check", "--out", "window.json", "--system-out", "system.json"])
    assert code == 0
    assert (sha256(tmp_path / "window.json"), sha256(tmp_path / "system.json")) \
        == WINDOW_SHA256[term, m, j]


@pytest.mark.parametrize("term,m,j", sorted(DECOMPOSE_SHA256))
def test_decompose_of_window_dump_pinned(tmp_path, term, m, j):
    dump, out = tmp_path / "system.json", tmp_path / "decompose.json"
    assert main(["window", term, "--family-cut", str(m), "--strand-cut", str(j),
                 "--system-out", str(dump), "--out", str(tmp_path / "window.json")]) == 0
    assert main(["decompose", str(dump), "--out", str(out)]) == 0
    assert sha256(out) == DECOMPOSE_SHA256[term, m, j]


@pytest.mark.parametrize("term", sorted(TRACE_SHA256))
def test_ladder_trace_outputs_pinned(tmp_path, term):
    out = tmp_path / "trace.json"
    assert main(["ladder", term, "--out", str(out)]) == 0
    assert sha256(out) == TRACE_SHA256[term]


@pytest.mark.parametrize("term,locator", sorted(AORB0_SHA256))
def test_ladder_aorb0_outputs_pinned(tmp_path, term, locator):
    out = tmp_path / "aorb0.json"
    assert main(["ladder", term, "--aorb0", locator, "--out", str(out)]) == 0
    assert sha256(out) == AORB0_SHA256[term, locator]


def test_lyapunov_on_window_dump_pinned(tmp_path):
    dump, oracle = tmp_path / "d.json", tmp_path / "do.json"
    assert main(["window", "cat(ramp)", "--family-cut", "6", "--strand-cut", "6",
                 "--system-out", str(dump), "--out", str(tmp_path / "dw.json")]) == 0
    assert main(["oracle", str(dump), "--out", str(oracle)]) == 0
    assert sha256(oracle) == DUMP_ORACLE_SHA256
    (top_class,) = [c for c in json.loads(oracle.read_text())["classes"] if "top" in c]
    assert len(top_class) == 41
    for name, members, verdict in (("top", ["top"], False),
                                   ("class of top", top_class, True)):
        out = tmp_path / "lyapunov.json"
        assert main(["lyapunov", str(dump), "--set", ",".join(members),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["absolutely_stable"] is verdict
        assert sha256(out) == LYAPUNOV_SHA256[name]
