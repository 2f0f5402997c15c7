"""Golden bundles: five committed example configs must keep producing the
same bytes in every artifact of `dropmaze simulate` and `dropmaze oracle`.

The simulate digests of `bifurcation_lock` and `ring_m2` were recorded
before the droplet and streamline integrators were optimised, so they pin
the outputs of the original per-cell code. The `ring_m2` oracle digests
were recorded before the per-maze analyses were computed once per run.
The `bifurcation_lock` oracle digests were recorded when `oracle` began
to read the configured start (`start = axis`) instead of placing its
own: its path.csv is byte for byte the one `simulate` writes. The
`ring_coated` digests were recorded while the streamline fan still had a
fixed budget of 200 000 steps, which three of its seeds used up; the
chosen streamline reaches the target within a few hundred steps, so the
budget derived from the field changes no byte. Those six were re-recorded
once when the solver began to iterate on the unknown cells only and to
sum with numpy: the potential's last bits moved (by at most 1e-12 V on
these three configs), and report.json and oracle.json gained
`streamline_tie`; every termination, step count and corridor sequence
stayed the same. The `ring_m1` digests (1 mm cells) and the
`bifurcation_symmetric` digests (a tied streamline fan) were recorded
before the droplet's wall tests were folded into one gap query.
`ring_insulated` is left out: it makes the same run as `ring_m2`. The
noisy run on a mirror-symmetric bifurcation (`NOISE_CFG`, 346 of its 875
steps pinned in place) was recorded before a pinned step began to reuse
its position's disk sum, so it pins noise and pinning together.
report.json and oracle.json are hashed after dropping their timestamp,
serialised the way the pipelines write them. A change that alters any
number on purpose updates these digests and says so in CHANGES.md.

The run goes through `dropmaze simulate` in a child interpreter with one
BLAS thread, as the benchmark runs it. No output depends on that count:
the solver sums with numpy, not BLAS, and criterion 10 checks that
`ring_m2` writes the same bundle at one and at two threads.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import CONFIGS, bundle_bytes, run_cli

EXIT_CODES = {
    ("simulate", "bifurcation_lock"): 2,
    ("simulate", "ring_m2"): 0,
    ("oracle", "bifurcation_lock"): 0,
    ("oracle", "ring_m2"): 0,
    ("simulate", "ring_coated"): 0,
    ("oracle", "ring_coated"): 0,
    ("simulate", "ring_m1"): 0,
    ("oracle", "ring_m1"): 0,
    ("simulate", "bifurcation_symmetric"): 2,
    ("oracle", "bifurcation_symmetric"): 0,
}

GOLDEN = {
    ("simulate", "bifurcation_lock"): {
        "comparison.json": "df1085a5e0be95f3ae7373f3f380e5c72556d5a88a8db50dae6d2486a0791c1d",
        "current.csv": "c3fb4eb3090553d51b9ba566426d12ed6250852d48cc6f0e5c9d9c43f40cc92d",
        "joule.pgm": "e7741d68330462f8353d955bd175882e877e2a053abc20ad2e1e1bc7e8390977",
        "path.csv": "19d450d4a427acfa00bc9cc0ca80e222630af11154ade9bac4148002b8b85d73",
        "potential.csv": "2c0da97d3170e1a05ff3d34e1f4079d996408bb29035ecc3c16d9fc34f603a26",
        "potential.pgm": "8e23517a71d32e24552a48e4b0ed570b936643e6558952d542471ab11c9d672f",
        "report.json": "8dadfd93216f99081dc4e96464eb274b03856f49504b608a5270f9220444f2ba",
        "trajectory.csv": "39ed973c3bc1e6d05696e4d2c590784da96b216709ef5097805de369f3f0b330",
    },
    ("simulate", "ring_m2"): {
        "comparison.json": "dac34d567dc3f03ddb65a3f5ed544eb107efeea893ff9ca70e061e48fd3a5fa6",
        "current.csv": "5533537bb42f22251179645150bb1b2b48b20405f56bddde795163b338d81f9e",
        "joule.pgm": "db99568128f4041fa4aec36fa578586ff0248726f9af5b44166268ad08323c45",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "1c8617d89e351fc6b35a356ba4052f3be276cb07ffa9a86ca3bcbf3779129ef3",
        "potential.pgm": "e01b83fa94d79d1f3144caf7b2472cae2ddf37179eac82a28deaece887fa1fba",
        "report.json": "3e15a2c900261f0de033864091e0199b51af87bb84478c7db40eff1628e84ea1",
        "trajectory.csv": "f77687cfa8f88b0d5c15d417a8920a4a040aaccff284a5e0caca7c68e69ba222",
    },
    ("oracle", "bifurcation_lock"): {
        "oracle.json": "0deff45602936c054143474f9e95c564e9e5d65076caea5bf50ba2a0fc63c528",
        "path.csv": "19d450d4a427acfa00bc9cc0ca80e222630af11154ade9bac4148002b8b85d73",
    },
    ("oracle", "ring_m2"): {
        "oracle.json": "b71cb8ee66aa91310076bf694591aa3aed771104f230b0cf12af3b5ee1ee59c3",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
    ("simulate", "ring_coated"): {
        "comparison.json": "c63a0cba8d07d216a79f84d8dd34a4444716a4c15120ce5cb2157289a1888583",
        "current.csv": "c99e38598e905c7316f16e9b1818592609250958c9529a20e771a99f7ea7e06f",
        "joule.pgm": "2376f390dff05cd96a50f870fc31271b6cdcb5270e19b0a76e261909e6580acf",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "265ef233191de76d711ed89b35b58aef0e90d7ea680f618cecbae81b3524c592",
        "potential.pgm": "50762467b317a38559553d44dc04e701a4d3d28c11b2cbb00d6313ea72802a40",
        "report.json": "b1ad71429367df79d54f12fd569c33744560a622d2e5fb0bfeda7dc1a1b1fc4d",
        "trajectory.csv": "3c7208a253f5f50fc3160b251b9a097046e6d4692edc66c3f7c7102a839b573f",
    },
    ("oracle", "ring_coated"): {
        "oracle.json": "0d469e2f5b8c359a43014e6feadc109511098f26f3c9e52760baae6b493ad85b",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
    ("simulate", "ring_m1"): {
        "comparison.json": "afd11dbf3fc3397edd1345a610fe97cdddbbbab121c92095883e571a50e71716",
        "current.csv": "74de304cfb0824ef624db77aa6fae7ae997686e6eb03c96974f82f2b18c26e63",
        "joule.pgm": "8b34b9d50f29eb74476e388a355b35ba8ba534947f683b9fc7ba6e523de1f8f4",
        "path.csv": "a5eb3a1fd31315426995a09be7650bcb1161c360571607a289e1b07d4656dbca",
        "potential.csv": "b5d7373617e90aed129e139824978f56cee9e556b6d2c0c262c63412190167c5",
        "potential.pgm": "2ea8650616336868f164c386263403d9915118aa7f3a757c5044d83606f2616d",
        "report.json": "ac70cb0a02337b0341b93c2f91a17feea4a470323b27343c4eea6d303ea798f6",
        "trajectory.csv": "1230455cb0bc047fb46dba5770096debce384c4ed5c4d5fe0d8232c8497b4dd9",
    },
    ("oracle", "ring_m1"): {
        "oracle.json": "f1785d46f4dbc22c4446999ddb7683811e37c7a1b40f38855e6595124741d5ea",
        "path.csv": "a5eb3a1fd31315426995a09be7650bcb1161c360571607a289e1b07d4656dbca",
    },
    ("simulate", "bifurcation_symmetric"): {
        "comparison.json": "295e7c47ca31a23d3f09fc541bbdb47e02653099b1eb1cc1f216d109d4bfb050",
        "current.csv": "3349e11a6c6a4923386655b2653b03c321a1413ed21623ddfb288037a667e4eb",
        "joule.pgm": "ea55328b4c360f6aa30c6a44039acb4c9eee093d7fece57dfd599b57210e8127",
        "path.csv": "693abb2fbfcec868e248bd1a87c1646d0e2e5d656cfd1c373db961246edc7045",
        "potential.csv": "daf0d61729fbd018e4f864c8c7e2c71510bbd445feb794de077409981d07f7bc",
        "potential.pgm": "e2ed608881a3990219fe6dec9684964769720263b449496de65f7ab4d0bba4a8",
        "report.json": "f26d2e3b619727410ee6129831d4728cae1e5a34f7350b1ed9d2222788144a90",
        "trajectory.csv": "7b68f6a24eaace228c56846b56abce7a6f24239452151f12ca4feeca2b40c644",
    },
    ("oracle", "bifurcation_symmetric"): {
        "oracle.json": "fc2766315d0f97120801a4ae7e83ed645f48acfcd32169ea4bcca0550f2e59a4",
        "path.csv": "693abb2fbfcec868e248bd1a87c1646d0e2e5d656cfd1c373db961246edc7045",
    },
}


def _digest(path: Path) -> str:
    return hashlib.sha256(bundle_bytes(path)).hexdigest()


@pytest.mark.parametrize(
    "command, name",
    [
        pytest.param(command, name, id=name if command == "simulate" else f"{command}-{name}")
        for command, name in GOLDEN
    ],
)
def test_bundle_matches_golden_digests(command, name, tmp_path):
    args = [command, "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path)]
    done = run_cli(args, blas_threads=1)
    assert done.returncode == EXIT_CODES[command, name], done.stderr
    digests = {p.name: _digest(p) for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN[command, name]


# The benchmark's pair1_noise_b case.
NOISE_CFG = """\
generator = bifurcation
len_a_mm = 40.0
len_b_mm = 40.0
channel_width_mm = 4
start = axis
noise_amplitude = 0.0009
noise_seed = 7
"""

NOISE_GOLDEN = {
    "comparison.json": "be06dccffa46cf9cf099c9a69cfa52496494f47d902839e96fc9d7d7f12a24a8",
    "current.csv": "3349e11a6c6a4923386655b2653b03c321a1413ed21623ddfb288037a667e4eb",
    "joule.pgm": "ea55328b4c360f6aa30c6a44039acb4c9eee093d7fece57dfd599b57210e8127",
    "path.csv": "693abb2fbfcec868e248bd1a87c1646d0e2e5d656cfd1c373db961246edc7045",
    "potential.csv": "daf0d61729fbd018e4f864c8c7e2c71510bbd445feb794de077409981d07f7bc",
    "potential.pgm": "e2ed608881a3990219fe6dec9684964769720263b449496de65f7ab4d0bba4a8",
    "report.json": "20c1df57a411a6cdd2001803e2e886b0f57ff196c745219358713372feae4638",
    "trajectory.csv": "f1e600e4513e8bfe04780f65e2f7eb091e62114f082da7547e225d53f1326813",
}


def test_noisy_pinned_run_matches_golden_digests(tmp_path):
    config = tmp_path / "noise.cfg"
    config.write_text(NOISE_CFG)
    out = tmp_path / "out"
    done = run_cli(["simulate", "--config", str(config), "--out", str(out)], blas_threads=1)
    assert done.returncode == 0, done.stderr
    assert {p.name: _digest(p) for p in sorted(out.iterdir())} == NOISE_GOLDEN
