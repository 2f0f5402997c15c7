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
All eleven were re-recorded once more when a multigrid V-cycle took
over from the Jacobi preconditioner and the report echoed only the
config keys a run reads and gained `solve.unknowns`: the potential moved
by at most 4e-9 V, and every termination, step count, corridor sequence
and `streamline_tie` stayed the same.
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
        "comparison.json": "f9a959bcf3d9eb7edebdc1b06e9d33f04744776703a44b8abdb91d4497d13f32",
        "current.csv": "23601e23e8c9fda48de74b763e6b44b039cf37a0c14329f273843a5c2cfebe59",
        "joule.pgm": "e7741d68330462f8353d955bd175882e877e2a053abc20ad2e1e1bc7e8390977",
        "path.csv": "19d450d4a427acfa00bc9cc0ca80e222630af11154ade9bac4148002b8b85d73",
        "potential.csv": "eaa751c990a249b7b59f7dd0b339618e177d5fb2f9d768d7dd95cdcccacf8da8",
        "potential.pgm": "8e23517a71d32e24552a48e4b0ed570b936643e6558952d542471ab11c9d672f",
        "report.json": "889fa3bd9f97b1065eb56815be4cbcad2c7e046c423861fb8145025683a35840",
        "trajectory.csv": "767db959d608ab1b84d99af9e4d3ca776c900f918cf61ffa9464ced9b0904572",
    },
    ("simulate", "ring_m2"): {
        "comparison.json": "e0fbea21769edb34c5953d5ab99dbfecf6c46ae01f9bbcd83b083d7fcedc6239",
        "current.csv": "d8897ec76a2d5dbc9585b9fb811d07fdf387718df2f0b86ab940abbe762593fd",
        "joule.pgm": "db99568128f4041fa4aec36fa578586ff0248726f9af5b44166268ad08323c45",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "f41db498f0cc43a83abf340e8a079db7842f1522a54d0bdd77ee35960981e3cd",
        "potential.pgm": "e01b83fa94d79d1f3144caf7b2472cae2ddf37179eac82a28deaece887fa1fba",
        "report.json": "aa6dd42f509dcd8694d0508b4bc6c1c24cf2f9464bca1c5e5d75e668f0d15396",
        "trajectory.csv": "2b309ea909fcd9a9b3b04369f04038e531b7af2ad573dca421fd0e9c9adf07ce",
    },
    ("oracle", "bifurcation_lock"): {
        "oracle.json": "b375820475d49d94131ed10a52ad8c5c252a2426684493a86c8c675b84bf01fe",
        "path.csv": "19d450d4a427acfa00bc9cc0ca80e222630af11154ade9bac4148002b8b85d73",
    },
    ("oracle", "ring_m2"): {
        "oracle.json": "8774e1322ba8486ae093c6955051c7eca874e0ca704a530a23006842b8bc906b",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
    ("simulate", "ring_coated"): {
        "comparison.json": "d1c623cfbc8bf7aaa51d645fdc84084a69f1c76f8493540fe0e7144bd8a0909b",
        "current.csv": "a2a2352d372072edb83f717343961fc8b09c82bb1e0f99a3721af8f12d8b59ea",
        "joule.pgm": "2376f390dff05cd96a50f870fc31271b6cdcb5270e19b0a76e261909e6580acf",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "7e7e995410480f438b63878d93f51845a53d825d73bd78d6d0edd5743c120055",
        "potential.pgm": "50762467b317a38559553d44dc04e701a4d3d28c11b2cbb00d6313ea72802a40",
        "report.json": "693fe8ec8e1d79a79b3a27abefbff7c105175b97923e6e9e8fbbbcfd8af984d7",
        "trajectory.csv": "35c492e020f70a2866ab5374d615976ac808c566d2df048866bbd13c574d93fe",
    },
    ("oracle", "ring_coated"): {
        "oracle.json": "57b85bd938c9fcc9b455b33374ea343156c9d8b600b1377597ca51a397a7168d",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
    ("simulate", "ring_m1"): {
        "comparison.json": "c4fef47bfd02a3cda151a92a798f5c73abe225cd1ffa3ff8071d1eab3333ca5a",
        "current.csv": "1239c2ff95d79b7d151b12ad7a83dc79121ac8b0b9bb412f99577d39a0586047",
        "joule.pgm": "8b34b9d50f29eb74476e388a355b35ba8ba534947f683b9fc7ba6e523de1f8f4",
        "path.csv": "a5eb3a1fd31315426995a09be7650bcb1161c360571607a289e1b07d4656dbca",
        "potential.csv": "b1ca196139f8c66e2e7131a69bc369e634277286a4f1cc5136342b00d8694e9a",
        "potential.pgm": "2ea8650616336868f164c386263403d9915118aa7f3a757c5044d83606f2616d",
        "report.json": "225d9896dad28910a4f1c6295f8b57e427a1740e81151e96cfc8471d0d15426f",
        "trajectory.csv": "345300c8588ececb443a42eb62fcebbc241515c937a6cb866a60a6c2d160666a",
    },
    ("oracle", "ring_m1"): {
        "oracle.json": "b0de411381b6b40a8ee890d32d9840ce342811852be029ce5ef5ec1062b1648f",
        "path.csv": "a5eb3a1fd31315426995a09be7650bcb1161c360571607a289e1b07d4656dbca",
    },
    ("simulate", "bifurcation_symmetric"): {
        "comparison.json": "705e09217c5642340a6cc0935b3e5d61540f1f3c78c167fc713106cdd5b3c50b",
        "current.csv": "35de26db00d6a84ff2ec11d7fb68642ea1361e3d61c223fd7dbdcbddcd9e2464",
        "joule.pgm": "ea55328b4c360f6aa30c6a44039acb4c9eee093d7fece57dfd599b57210e8127",
        "path.csv": "693abb2fbfcec868e248bd1a87c1646d0e2e5d656cfd1c373db961246edc7045",
        "potential.csv": "906f6118d10bf17bff20a47d6c88c37d5a4c3d017c2663055ddf41e8785d8551",
        "potential.pgm": "e2ed608881a3990219fe6dec9684964769720263b449496de65f7ab4d0bba4a8",
        "report.json": "197115f9462b72a7ea6fda9a6a63067ec5b4c1ab941cf7c55b816cca2f8f848b",
        "trajectory.csv": "630d66b7963e823efa25cd274dda47f91597afd3c636e8e555f7f90e8bb0a0e9",
    },
    ("oracle", "bifurcation_symmetric"): {
        "oracle.json": "48479680531726451b8f6e782984076d0a0a12d74c7391bcc4c9fa24d45f6bfe",
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
    "comparison.json": "0778c7acfe17699612e296a6e03de9332b51bd9502f3d3294f4334f2ae55e883",
    "current.csv": "35de26db00d6a84ff2ec11d7fb68642ea1361e3d61c223fd7dbdcbddcd9e2464",
    "joule.pgm": "ea55328b4c360f6aa30c6a44039acb4c9eee093d7fece57dfd599b57210e8127",
    "path.csv": "693abb2fbfcec868e248bd1a87c1646d0e2e5d656cfd1c373db961246edc7045",
    "potential.csv": "906f6118d10bf17bff20a47d6c88c37d5a4c3d017c2663055ddf41e8785d8551",
    "potential.pgm": "e2ed608881a3990219fe6dec9684964769720263b449496de65f7ab4d0bba4a8",
    "report.json": "b8b1e1c919f321f44738c89374d78c4539073a5287a0d2ff5dae063519e61595",
    "trajectory.csv": "77bac84d294875d3c833504595dd29298eb978afeb8414b578de79ac083b72c9",
}


def test_noisy_pinned_run_matches_golden_digests(tmp_path):
    config = tmp_path / "noise.cfg"
    config.write_text(NOISE_CFG)
    out = tmp_path / "out"
    done = run_cli(["simulate", "--config", str(config), "--out", str(out)], blas_threads=1)
    assert done.returncode == 0, done.stderr
    assert {p.name: _digest(p) for p in sorted(out.iterdir())} == NOISE_GOLDEN
