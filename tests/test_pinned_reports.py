"""Recorded CLI outputs: the exit code and the SHA-256 of stdout of fixed command lines.

Each command runs in-process with ``--seed 7``, once as JSON and once
with ``--format table``.  The table below was recorded once; a change to
any report, error text or input digest of these commands shows here as
a changed hash.  Such a change is deliberate only when CHANGES.md
records it, with the new hash.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from orbitkit import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIN = ("dual", "m2", "qi", "qi2", "qi_s3")
LIE = ("abelian3", "aff1", "heisenberg", "lie_dim2000", "sl2")

# h3 + h3 + Q^2: [X1, Y1] = Z1 and [X2, Y2] = Z2, everything else commutes
H3H3Q2 = {
    "dim": 8,
    "basis": ["X1", "Y1", "Z1", "X2", "Y2", "Z2", "T1", "T2"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"2": "1"}},
        {"i": 3, "j": 4, "coeffs": {"5": "1"}},
    ],
}


def _commands(h3h3q2: str) -> dict:
    """id -> argv, with ``h3h3q2`` the path of H3H3Q2 written as JSON."""
    def fx(name):
        return str(FIXTURES / f"{name}.json")

    heis = fx("heisenberg")
    out = {f"hp-{n}": ["cyclic", "hp", "--algebra", fx(n), "--truncation", "4"] for n in FIN}
    out["trace-m2"] = ["cyclic", "trace", "--algebra", fx("m2"), "--trace", fx("m2_trace")]
    out.update({f"check-{n}": ["lie", "check", "--algebra", fx(n)] for n in LIE})
    out.update(
        {f"strata-{n}": ["lie", "strata", "--algebra", fx(n), "--samples", "50"] for n in LIE}
    )
    # the benchmark's cli-mix: acceptance criterion 10, then the heavier commands
    mix = [
        ["lie", "check", "--algebra", heis],
        ["lie", "strata", "--algebra", fx("sl2"), "--samples", "200"],
        ["lie", "polarize", "--algebra", heis, "--covector", "[0, 0, 1]",
         "--subspace", "[[1, 0, 0], [0, 0, 1]]"],
        ["quantize", "verify", "--alpha", "p1*dq1", "--max-degree", "2"],
        ["cyclic", "hp", "--algebra", fx("qi"), "--truncation", "4"],
        ["cyclic", "entire", "--pattern", "floor-half-fact/fact"],
        ["cyclic", "trace", "--algebra", fx("m2"), "--trace", fx("m2_trace")],
        ["chern", "phi", "3", "2", "2"],
        ["chern", "matrix", "--family", "SU", "--rank", "3"],
        ["qgroup", "reps", "--family", "A", "--rank", "2", "--t-samples", "2"],
        ["qgroup", "verify", "--q", "0.5", "--truncation", "8", "--t-samples", "3"],
        ["affine", "verify", "--l", "2.0", "--h", "0.25", "--trials", "20"],
        ["tower", "report", "--algebra", heis, "--samples", "200"],
        ["lie", "strata", "--algebra", h3h3q2, "--samples", "40"],
        ["lie", "strata", "--algebra", fx("aff1"), "--samples", "1000"],
        ["quantize", "verify", "--vars", "2", "--max-degree", "3",
         "--alpha", "p1*dq1 + p2*dq2"],
        ["affine", "verify", "--l", "8", "--h", "0.0625", "--trials", "1000"],
        ["qgroup", "verify", "--q", "0.5", "--truncation", "64"],
    ]
    out.update({f"mix-{k:02d}": argv for k, argv in enumerate(mix)})
    return {**out, **{f"{name}-table": ["--format", "table", *argv] for name, argv in out.items()}}


def _run(argv) -> tuple:
    """(exit code, SHA-256 of stdout) of one in-process run with --seed 7."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--seed", "7", *argv], standalone_mode=False)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


PINNED = {
    "check-abelian3": (0, "8ea1d02100808c75309f6f8179291ab3c5ef7d7b841ca026d210a041e474e9f1"),
    "check-abelian3-table": (0, "9e827af5471e6db13dc981b087cca1dd232cea135416cc8914943585ff452884"),
    "check-aff1": (0, "b4682ac8393363ff5a889f34da32b92b1a46dcd4959e258b1e7ab26c9592747c"),
    "check-aff1-table": (0, "704380d36706d2fc98bf97de1a42e4b07cffcf3970f29c21be646ea460e9763c"),
    "check-heisenberg": (0, "ade3e377df611ba0f74223388daa45a0332b5c06af5ec18f06becde1863f85bd"),
    "check-heisenberg-table": (0, "c4aacee3aee88d559ccd55b3d0eb16a946d23039886412be6c4702a1c0375eb2"),
    "check-lie_dim2000": (2, "ff4d276a8c9f743308d51f006a65b5af7be7dcfd24b4df3d6612dc51c7c68c31"),
    "check-lie_dim2000-table": (2, "ff4d276a8c9f743308d51f006a65b5af7be7dcfd24b4df3d6612dc51c7c68c31"),
    "check-sl2": (0, "ac41d34870447e092549ed8454cba30d23bbf94e893d43338c93a1d426954d3b"),
    "check-sl2-table": (0, "a5ff336765309ec92eb93119240ec121912847d6bdf2ee67e1d67e9b59ae8216"),
    "hp-dual": (0, "b5a9eebba467bbd91ab5d3ab328e5d2a92e27c6cdda2acfe7ba7090cfafce347"),
    "hp-dual-table": (0, "521e34e8963714cad531739d71a235c300fc2f2bef6c0c5d32f6fa17b2f64bb4"),
    "hp-m2": (0, "23e55f8da502dbea5b8db5ab78d23a84ffbc6385d53ecba0280b3021d8522cb5"),
    "hp-m2-table": (0, "c2ddc07bea9c954cfc3e2ae7e113657b7b484eb57ba6feb89ef65afa09cebed2"),
    "hp-qi": (0, "3b567bdfda7480870b97240462488476937f880e0434e3dc0f7e7ce2bbe4cf3c"),
    "hp-qi-table": (0, "5b70bc152cb34beb3ef9ba2a22759f9692c690bda2ff2e37a0aa507ed6259f1f"),
    "hp-qi2": (0, "d8a977773e67c702ae46488a5006933de23da61f8888ac2c48c7c66b5c28a680"),
    "hp-qi2-table": (0, "8097f4369c4242d8a82f9dff5199b179577729767e5915f22bcbc9faf4ac88d1"),
    "hp-qi_s3": (0, "e6c612107c747c803bb383c574f4e6d160dae9d741e73b8d29ab06fd88a721a5"),
    "hp-qi_s3-table": (0, "8208e102e3b80f73c5952787d3357badd9a8c2a965707940818d4eeabc023595"),
    "mix-00": (0, "ade3e377df611ba0f74223388daa45a0332b5c06af5ec18f06becde1863f85bd"),
    "mix-00-table": (0, "c4aacee3aee88d559ccd55b3d0eb16a946d23039886412be6c4702a1c0375eb2"),
    "mix-01": (0, "bbee9eea38dc257036afec14b97628893c54f9e9795b72b2f8dc4c8adbbf3734"),
    "mix-01-table": (0, "bb21a47acd238e3d11b7f25d17659f936fc59824180a362650ab68c6b624a4a5"),
    "mix-02": (0, "14ae2ddb427bb40cfaedfc138d45dfc1abcc43536796e6403d9d63408ce3ad84"),
    "mix-02-table": (0, "d89c3b9cde016573f225283429915ee066bda4d9d2a21157ad022605e9c18293"),
    "mix-03": (0, "38399b1b13f782b152f8e4375cd942ef3b8a645cdf4a47ae521ff3198d2d4af4"),
    "mix-03-table": (0, "d3cbc8ac9c17028f08eb3f04b6bf3c55c4ef60814dd3057f64c77a7a3192aea4"),
    "mix-04": (0, "3b567bdfda7480870b97240462488476937f880e0434e3dc0f7e7ce2bbe4cf3c"),
    "mix-04-table": (0, "5b70bc152cb34beb3ef9ba2a22759f9692c690bda2ff2e37a0aa507ed6259f1f"),
    "mix-05": (0, "125046140706553c2e1bcedc787126041f544e7d607d67f64e2e647c7d0a3d56"),
    "mix-05-table": (0, "f3bb6c0caab3b1b454bf2cf24622f37810cb75169be36ad212f004732e79c768"),
    "mix-06": (0, "9ad997a8ef8a248cfc463ca3ebed41ef28b1192414d0321b6dda08a369783d66"),
    "mix-06-table": (0, "b201f6b94999935b7f934ef98543fe50ff68d5c3d336e4be7c0b95befc6aa33a"),
    "mix-07": (0, "7d6c645fce4f2cf24fcea746526c6c9020af7027e56634c9f12c4c7b3a90e924"),
    "mix-07-table": (0, "f267febf457f3fdc846f377b803a04c767b2ecff5f2e4c2bc3a56f6fe965e26c"),
    "mix-08": (0, "cd80341b46901150ed5c39535359f80eb2275270c22ae54fba61a20c4b2e0c9b"),
    "mix-08-table": (0, "fc972b8f84151bbb8d69d40baa62ac2375b9de009f4fc7aa4a6ed65b3d45dab3"),
    "mix-09": (0, "1defb3aeb3de21bb7cfa2e428fc64885d8529e4013ccf2060a4732de87156ab1"),
    "mix-09-table": (0, "8faecc81ddf2423568864481353728e3fd1216c8f4123f7f3e0ed53e0f509699"),
    "mix-10": (0, "dd30039cf302bcbae8ad916e65183763869c92d94fdc1c43d0d5c240dc0bfd76"),
    "mix-10-table": (0, "37f8812312ed49b8ea9a581ee681a7e715fed8549fa28d229b433c169c4aa92e"),
    "mix-11": (0, "269db31b032cac198f5fcfbcd9b10c5bf1906f73751de948e628e705b19effb3"),
    "mix-11-table": (0, "f2c3ad0cbe570157774ab6042242f82f32cd75d2a4d9fef89fe4f1e497a4dfc0"),
    "mix-12": (0, "68f9e479dfd25490385f98f45f58e005f619869f576bbf4f19ab48ef69546eed"),
    "mix-12-table": (0, "8b787d58627cf147dbdd21742021bbb3d408fe0ffcf52bf1ee2b0f8535ffff78"),
    "mix-13": (0, "974206a210ef34f9925ec1095a7dca2c0fe4573d3d865cd30bce6df561b773e9"),
    "mix-13-table": (0, "03c0b0688d0d961f2d363a4c8489549b1cf1d3c18a3c110a9f6b0d99ac6d0076"),
    "mix-14": (0, "11e75120913adac73c2e726f9996d9491feb0c8ea31cc132baecfdd6b21816a2"),
    "mix-14-table": (0, "0d125535e33661d9d355257d5304850b2fe49f19c5181814756a53d84f09f6bc"),
    "mix-15": (0, "d0f5fecd883600dbfa2e01341141383e1af10645c48e836bb1a3cbe8644f85b4"),
    "mix-15-table": (0, "ee05175cc6c96e78a0770ea0dfbb73b1315fa3a3adaf24f81b837bc04ac45f86"),
    "mix-16": (0, "a882da7d496b3597b76914c00590247860611e315516deb38f389be90349c389"),
    "mix-16-table": (0, "311c7e814eb9eb0b01695b7a745000ecb7403a12c2c58924f1128ff70cb4ebc6"),
    "mix-17": (0, "609fbbeb7a71aef2fe6b011eec2f72f485108337e90fb62bf4f7ff89580d15d9"),
    "mix-17-table": (0, "8060103815b1d821ca05a16a72e36f04b525807a2b34303233a3218cb90bc341"),
    "strata-abelian3": (0, "12b3412d28516eeaa8ba5ffe713ae7c4ca1fa13d42bf207c14468e65335e8170"),
    "strata-abelian3-table": (0, "c1efd976405c6e9002cab228e37d8008b3ec5d5ebd1602676319bf5a6941ce32"),
    "strata-aff1": (0, "5a487641f6de61221541ca9bbc4f83f81fecc8d10dff1d3ebb95fa4f39b3486b"),
    "strata-aff1-table": (0, "400f79ed01fb6ac3b85ff07addb79b3d873edd172427c28be047707f11203ae6"),
    "strata-heisenberg": (0, "b31eb6867599cd5eb6896291277ffa05b8477c3ce2a2d57852281a6c45aa3f47"),
    "strata-heisenberg-table": (0, "8c87fd64036712fe9ad105ce2543463a3d55c3753c20130d59f6a2a5a65d7f7e"),
    "strata-lie_dim2000": (2, "d20f6c7e8fa59843300fc01914ecd82695e2820050493d882b37d70380ee7c94"),
    "strata-lie_dim2000-table": (2, "d20f6c7e8fa59843300fc01914ecd82695e2820050493d882b37d70380ee7c94"),
    "strata-sl2": (0, "b530a041fb469365f74e457bd8aa51e0b01fa57ec939754c6c8ba8cdfd9fe204"),
    "strata-sl2-table": (0, "c7b430308ad83d20c72fe92359278581797c8d6367b676a7066898967be2253e"),
    "trace-m2": (0, "9ad997a8ef8a248cfc463ca3ebed41ef28b1192414d0321b6dda08a369783d66"),
    "trace-m2-table": (0, "b201f6b94999935b7f934ef98543fe50ff68d5c3d336e4be7c0b95befc6aa33a"),
}


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "h3h3q2.json"
    path.write_text(json.dumps(H3H3Q2))
    return _commands(str(path))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(commands, name):
    assert _run(commands[name]) == PINNED[name], commands[name]


def test_every_command_is_pinned(commands):
    assert sorted(commands) == sorted(PINNED)
