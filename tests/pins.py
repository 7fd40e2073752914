"""Every sha256 pin of the CLI's output: one table of rows, and one runner.

A row runs its commands in order, in process, through ``fixfactor.cli.main``
(each command is the text after ``python -m fixfactor.cli``, split as a
shell would) in one fresh temporary directory that is the working directory
while they run.  It passes when every command returns 0 and every file it
pins exists with its sha256.  File names are relative on purpose: the
``window`` report echoes its ``--system-out`` path.  ``python tests/pins.py``
runs every row and exits 1 on any failure; tier-1 runs the rows not marked
slow.  To re-pin, copy the hash it printed into the row.
"""

import hashlib
import json
import os
import shlex
import sys
import tempfile
from dataclasses import dataclass

from fixfactor import cli


@dataclass(frozen=True)
class Row:
    name: str
    commands: list  # CLI command lines, or helpers called with no argument
    sha256: dict  # output file -> its sha256
    slow: bool = False


def reverse_points() -> int:
    """The dump d.json with its points list reversed, as drev.json."""
    with open("d.json", encoding="utf-8") as f:
        d = json.load(f)
    d["points"].reverse()
    with open("drev.json", "w", encoding="utf-8") as f:
        json.dump(d, f)
    return 0


# The rows that only CI ran before they joined the table, named by their CI step.
CI_ROWS = [
    Row("5-point census up to isomorphism, byte-identical",
        ["census --points 5 --up-to-iso --check all --out r5.json"],
        {"r5.json": "174ecf11a9aae0386944f276aa711c246169e08b26a396b967dd5dc1a2b99403"},
        slow=True),
    Row("Labeled 4-point census over two worker processes, byte-identical",
        ["census --points 4 --check all --jobs 2 --out r.json"],
        {"r.json": "31252b18c51a04fcf65095fbef1b1d52713194b5a3d73ed07f64dfafd028aedd"},
        slow=True),
    Row("Labeled 4-point census in one process, which shares each space's facts across all "
        "of its systems, byte-identical",
        ["census --points 4 --check all --jobs 1 --out r1.json"],
        {"r1.json": "31252b18c51a04fcf65095fbef1b1d52713194b5a3d73ed07f64dfafd028aedd"},
        slow=True),
    Row("The benchmark's 4-point census up to isomorphism over two worker processes, "
        "byte-identical",
        ["census --points 4 --up-to-iso --check all --jobs 2 --out r4i.json"],
        {"r4i.json": "4677bcd33a576a7368fa12661264d2c65aedff05c0bf4bcfa3cc044b8bbde1ff"}),
    Row("Largest window audit, cat(ramp) at cuts (8,8), byte-identical",
        ["window 'cat(ramp)' --family-cut 8 --strand-cut 8 --check --out w.json"],
        {"w.json": "cdc29b19ed82734499a52feefd32c5879ace9f12e9824fcac6c767174be53293"}),
    Row("Largest ramp window audit, ramp at cuts (8,8), byte-identical",
        ["window ramp --family-cut 8 --strand-cut 8 --check --out wr.json"],
        {"wr.json": "0a9aeea4d2f727ef0d8693dedef2ee5e71b15db5fd58289325a40649f54c0a51"}),
    Row("Deepest window audit, cat(cat(ramp)) at cuts (7,7), byte-identical",
        ["window 'cat(cat(ramp))' --family-cut 7 --strand-cut 7 --check --out w3.json"],
        {"w3.json": "c4ca86ffa9209c560e1a8ff20bb55389955a95cb162cc30388097c657a0fb05d"}),
    Row("Deepest window audit the CLI reaches, cat(cat(ramp)) at cuts (8,8), byte-identical",
        ["window 'cat(cat(ramp))' --family-cut 8 --strand-cut 8 --check --out w38.json"],
        {"w38.json": "b4acc274df807a97cf41f2a0b97e3c84726d921f434e305a75aa9d639a821cb5"}),
    Row("Finite degrees and no ramp, cat(cat(cat(strand))) at cuts (8,8), keyed per strand "
        "from degree 1 on, byte-identical",
        ["window 'cat(cat(cat(strand)))' --family-cut 8 --strand-cut 8 --check --out w4.json"],
        {"w4.json": "dffb7d8f52ad4852826ba8937b1694277b019ff873ea5b56aa23fcdc330d79b3"}),
    Row("Deepest export, the 3,067-point cat(cat(ramp)) (5,6) window dump and its decompose, "
        "byte-identical",
        ["window 'cat(cat(ramp))' --family-cut 5 --strand-cut 6 --system-out d3.json "
         "--out d3w.json",
         "decompose d3.json --out d3r.json"],
        {"d3.json": "936375d9e7b9b1dc3be65b35d42927e6ad7167c0512db25059a67fb992cec952",
         "d3r.json": "9d39055840da488abb17bae515017d6adcb372f5926f4ba0ed0c83098e51716b"}),
    Row("Largest decompose, the 3,459-point cat(ramp) (6,6) window dump, every stabilize "
        "consumer byte-identical",
        ["window 'cat(ramp)' --family-cut 6 --strand-cut 6 --system-out d.json --out dw.json",
         "decompose d.json --out dr.json",
         "oracle d.json --out do.json",
         "trace d.json --out dt.json",
         "quotient d.json --out dq.json",
         "ergodic d.json --out de.json",
         "decompose d.json --format dot --out dd.dot",
         "export-dot d.json --out dx.dot"],
        {"d.json": "a721bbf17dac936ba6309f22d687308fb3fc1abbaf79f5e9f305b6611a197d91",
         "dw.json": "dd016feea4bea875c637c2ca3a74fbce19e2e0117e4f10dc78f22e00497e206b",
         "dr.json": "e5860811c0dc302a314360cd0d836154b5d4540faa53ff924e9af2e4a89b3a96",
         "do.json": "852c4804c57a526509106465aef2bbc5d609278469fcb842c617b60fe1826b85",
         "dt.json": "057d96adbd0a69a9d7658b50256d3a337fd48a68870fd0fff275708f9da4c945",
         "dq.json": "df9c8b9a4695046a9f27a730d2a1831a9759db369ee39de6126ebca6950afa58",
         "de.json": "6770241b3448eb3188a8a9a30a9c47a02120c089ed772ee95fee47c5519bf68a",
         "dd.dot": "ea39998c74ef53fb75a7705f981a5861f1876f9b71d3cc4eb0aeac88d3b8ba8b",
         "dx.dot": "ea39998c74ef53fb75a7705f981a5861f1876f9b71d3cc4eb0aeac88d3b8ba8b"}),
    Row("The 3,459-point dump with its points list reversed, which swaps which end of each "
        "specialization pair has the lower index, decompose byte-identical",
        ["window 'cat(ramp)' --family-cut 6 --strand-cut 6 --system-out d.json --out dw.json",
         reverse_points,
         "decompose drev.json --out drevr.json"],
        {"drevr.json": "6ffcb774ef94d508447d21719e133ec627979f83ea8476e940d23ab80a189420"}),
    Row("Largest exports, the 18,235-point cat(ramp) and 9,199-point ramp (8,8) window dumps "
        "and the ramp dump's decompose, byte-identical",
        ["window 'cat(ramp)' --family-cut 8 --strand-cut 8 --system-out x8.json --out x8w.json",
         "window ramp --family-cut 8 --strand-cut 8 --system-out xr8.json --out xr8w.json",
         "decompose xr8.json --out xr8d.json"],
        {"x8.json": "c1c89caa8ccd70ad851b935c5b8bfc948b64ce31b549488a442f47ba58f2f47e",
         "x8w.json": "8a037f4cef1784767ca02baaad43f0ad4b9bfbf347906693212742e774e6b156",
         "xr8.json": "6891980d49567bf363c2b53cca526025dcea3aaabd6edb3c8009c9dc3176d2b6",
         "xr8w.json": "e1e435a74afdfff94061df68ab91a841c83a968cf8fc34f105201c4b17924ccd",
         "xr8d.json": "9ebca32dc6d6bd7a46be4d5df9f37397734d5cc52eba3daf73b199cacf907301"}),
]

# `window <term> --family-cut m --strand-cut j --check`: (report, system dump)
WINDOW_SHA256 = {
    ("strand", 3, 3): ("cda7ddabde3afa74057d6aff962e713674d1f45d0c0e26e4ffa8a534bb4e1043",
                       "98acf3959c0f018b968dc4536a706e031db8ae916b03bb81af7c0d271368749e"),
    ("strand", 5, 6): ("66b6b17a514304a5128a585f8309e9d5d8595598aac52cf430e1fc64e323427c",
                       "9538db2b7cbf6653ef98992772c516966c43a2faa42d9fa4458fce9edc78895c"),
    ("cat(strand)", 3, 3): ("10afdb92efd3cb43fa1a849d6d835c558c6bb10e90abbe6d5ccac7e38d2db469",
                            "d49dc80f7745d3bbfab7f89b53af271ff5453c0a741fc9c6f9ae231d7709f52b"),
    ("cat(strand)", 5, 6): ("d6e2d8f282de0b48a29a01528fcf4889097fbb6434fa5b42548e77b8b6636dee",
                            "4cd941547ae0db974f85be8dd949a467fa9c9151578e7033779af10f7f96a773"),
    ("ramp", 3, 3): ("ba32cb70ea27777933ff61ad846f88f85f1054ba44c22f5e41c3d6b8dbdbcc3a",
                     "3d4b2044fb666c40fa0fa69034f3a30d8bff2fb2ba08fb929f908e6c254c1167"),
    ("ramp", 5, 6): ("291497aecbad862e5432fb912f0c28ec7c7d811468f293801a2c4661dad41a72",
                     "cfe78fed8e9b920970afc851d5562720ba645842eb621935d5b87c97bfaf3a4a"),
    ("cat(ramp)", 3, 3): ("96fba07b41469bf823073bcf63a28fef1b599ab95495e80315745bc0d07a58b5",
                          "14c0a1350896ac3f5ec16df02059a54cd39e5424f67429f42316efc6faed9762"),
    ("cat(ramp)", 5, 6): ("48e421642ab2114f11dcc1df790e89207f5c790d0e710b1b3cbba876ef4a735f",
                          "1f01e67f76d29602303bc5af8835e4d581db5ccfa6c9d5682d812549fdd22818"),
    ("cat(cat(ramp))", 5, 6): ("c1a5f3edbaa296967af22a6b1901a91f533ae92944243ff0efebbbf479cc4059",
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

# `census --points 3 --check all`, at --jobs 1 and 2
CENSUS_3_SHA256 = "22ca2a47538b70fd5b67deebda6a3076bbf9cd5a1ad99cbce3401f847454efe5"
# `census --points N --up-to-iso --check all`
CENSUS_ISO_SHA256 = {
    3: "0f6ad1609bbe6f5a3a6197ca528fd55c347dbff8b8ac4d62620037e5216af1c0",
    4: "4677bcd33a576a7368fa12661264d2c65aedff05c0bf4bcfa3cc044b8bbde1ff",
}


# The golden rows, each named after its key and run in tier-1 by its own test.
GOLDEN_ROWS = [
    *(Row(f"window {t} ({m},{j})",
          [f"window '{t}' --family-cut {m} --strand-cut {j} --check --out window.json "
           "--system-out system.json"],
          {"window.json": report, "system.json": dump})
      for (t, m, j), (report, dump) in WINDOW_SHA256.items()),
    *(Row(f"decompose {t} ({m},{j})",
          [f"window '{t}' --family-cut {m} --strand-cut {j} --system-out system.json "
           "--out window.json", "decompose system.json --out decompose.json"],
          {"decompose.json": h})
      for (t, m, j), h in DECOMPOSE_SHA256.items()),
    *(Row(f"ladder {t}", [f"ladder '{t}' --out trace.json"], {"trace.json": h})
      for t, h in TRACE_SHA256.items()),
    *(Row(f"ladder {t} --aorb0 {loc}", [f"ladder '{t}' --aorb0 {loc} --out aorb0.json"],
          {"aorb0.json": h})
      for (t, loc), h in AORB0_SHA256.items()),
    *(Row(f"census 3 --jobs {jobs}", [f"census --points 3 --check all --jobs {jobs} --out c.json"],
          {"c.json": CENSUS_3_SHA256})
      for jobs in (1, 2)),
    *(Row(f"census {n} --up-to-iso", [f"census --points {n} --up-to-iso --check all --out c.json"],
          {"c.json": h})
      for n, h in CENSUS_ISO_SHA256.items()),
]

ROWS = CI_ROWS + GOLDEN_ROWS
ROW = {row.name: row for row in ROWS}

# Tests that assert more than a hash keep their own code and read these:
# `lyapunov` on the cat(ramp) (6,6) dump, of `top` alone (not stable) and of
# the oracle class that holds `top` (41 points, absolutely stable) ...
LYAPUNOV_SHA256 = {
    "top": "96bea15101c7f28c0ec1e84e341441ca6f62c1ffb5d1533823ddf4d3ce3273d9",
    "class of top": "98d236030aee258d0092be1f072d01354dec080cce6c97040549262c19b7f0b8",
}
# ... and `decompose` of the 160-point layered system on TAIL_INTO_CYCLE,
# since no exported window dump has a cycle longer than one point
TAIL_INTO_CYCLE_DECOMPOSE_SHA256 = \
    "837db6deda86fbe29b5bcb08e77315ff321d0bf2b5bc9765ce8f035e03027ff6"


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check(row: Row) -> list[tuple[bool, str]]:
    """Run one row: a (passed, line) pair per failed command and per pinned file."""
    out, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in row.commands:
                code = command() if callable(command) else cli.main(shlex.split(command))
                if code != 0:
                    shown = getattr(command, "__name__", command)
                    out.append((False, f"FAIL  {row.name}  exit {code}: {shown}"))
            for path, want in row.sha256.items():
                got = sha256(path) if os.path.isfile(path) else "missing"
                out.append((got == want, f"{'ok' if got == want else 'FAIL':4}  {row.name}  "
                                         f"{path}  {want}  {got}"))
        finally:
            os.chdir(cwd)
    return out


def failures(row: Row) -> list[str]:
    return [line for ok, line in check(row) if not ok]


def main(rows=ROWS) -> int:
    """Print one line per pinned file and per failed command; 1 on any failure."""
    failed = False
    for row in rows:
        for ok, line in check(row):
            print(line, flush=True)
            failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
