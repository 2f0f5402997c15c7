"""Golden bundles: five committed example configs, and `ring_m2` at
0.25 mm cells, must keep producing the same bytes in every artifact of
`dropmaze simulate` and `dropmaze oracle`.

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
and `streamline_tie` stayed the same. The eleven report.json and
oracle.json digests were re-recorded once more when the droplet lost its
force-source option: the config echo dropped its `force_source` line,
and no other byte of any bundle changed. The simulate digests (the
five configs and the noisy run below) were re-recorded once more when
the droplet's disk sums began to come from per-row prefix sums: each
sum keeps the same cells but adds them in another order, so only
trajectory.csv, report.json and, for `ring_m2` and `ring_m1`,
comparison.json changed. Over the six configs and seeds 0-3 of both
benchmark workloads, positions moved by at most 2.9e-14 mm, dt by at
most 4.5e-16 and the corner force maximum by at most 6.7e-16 relative;
every exit code, termination, step count, path and streamline sequence
stayed the same, and no field file or oracle bundle changed.
`ring_insulated` is left out: it makes the same run as `ring_m2`. The
noisy run on a mirror-symmetric bifurcation (`NOISE_CFG`, 346 of its 875
steps pinned in place) was recorded before a pinned step began to reuse
its position's disk sum, so it pins noise and pinning together.
The `ring_m2` bundles at 0.25 mm cells (`FINE_CFG`, the 280x280 grid
the benchmark's `ring_fine` workload runs on) were recorded before the
streamline fan began to return its branches with their corridor
sequences and before the corner probes were picked in whole cells; they
pin the corner statistics over 11 167 probes on that grid.
report.json and oracle.json are hashed after dropping their timestamp,
serialised the way the pipelines write them. A change that alters any
number on purpose updates these digests and says so in CHANGES.md.

The run goes through `dropmaze simulate` in a child interpreter with one
BLAS thread, as the benchmark runs it. No output depends on that count:
the solver sums with numpy, not BLAS, and criterion 10 checks that
`ring_m2` writes the same bundle at one and at two threads.

The maze files that `dropmaze generate` writes for all six configs are
pinned too, header and grid: parse_maze(emit_maze(s)) == s holds for any
header order or number format, so no round trip would notice a change.
They were recorded before the maze model took its two electrode sets and
the header its one table of physical constants.
"""

import hashlib
from pathlib import Path

import pytest

from dropmaze.cli import main

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
        "report.json": "2a1c7e9d227406446f42cd45903b06754995757d1f09f8edcbf7211f1e8ee630",
        "trajectory.csv": "8fa018d2dc23141bd23f618968e222bd6ef7e63b71c2a8ebf7f6795629e2c968",
    },
    ("simulate", "ring_m2"): {
        "comparison.json": "fdc7003492a3f69ed91e111ca1e7dc2628a6d0c4f2ad40b041f4e38dc0a81d0c",
        "current.csv": "d8897ec76a2d5dbc9585b9fb811d07fdf387718df2f0b86ab940abbe762593fd",
        "joule.pgm": "db99568128f4041fa4aec36fa578586ff0248726f9af5b44166268ad08323c45",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "f41db498f0cc43a83abf340e8a079db7842f1522a54d0bdd77ee35960981e3cd",
        "potential.pgm": "e01b83fa94d79d1f3144caf7b2472cae2ddf37179eac82a28deaece887fa1fba",
        "report.json": "c18a24711f6b37554988b7616c9d2c8f3a6625ce1351069b9ce87e4fa99b9a01",
        "trajectory.csv": "2375ce696a4e3b0f60e38aa696edfeb27f91d3dd4b9e79d3b80ac7f5e430ec42",
    },
    ("oracle", "bifurcation_lock"): {
        "oracle.json": "43e05a7a23768216b604c02ff5f48c1a096c8088baf2fb190959db5f1a9acfc8",
        "path.csv": "19d450d4a427acfa00bc9cc0ca80e222630af11154ade9bac4148002b8b85d73",
    },
    ("oracle", "ring_m2"): {
        "oracle.json": "e20fe64339f4c712b08095ba08dd87b54f3c6a946c2697cc2496d8c5ef640314",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
    ("simulate", "ring_coated"): {
        "comparison.json": "d1c623cfbc8bf7aaa51d645fdc84084a69f1c76f8493540fe0e7144bd8a0909b",
        "current.csv": "a2a2352d372072edb83f717343961fc8b09c82bb1e0f99a3721af8f12d8b59ea",
        "joule.pgm": "2376f390dff05cd96a50f870fc31271b6cdcb5270e19b0a76e261909e6580acf",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "7e7e995410480f438b63878d93f51845a53d825d73bd78d6d0edd5743c120055",
        "potential.pgm": "50762467b317a38559553d44dc04e701a4d3d28c11b2cbb00d6313ea72802a40",
        "report.json": "0c0deab64df9e486649054cae3963fc5db2f916c7fa154e4f7239d082b5c456b",
        "trajectory.csv": "8caf2d6a1c692a293f13d609f49df1d95dfdc6c6709c1ea863552416607262d2",
    },
    ("oracle", "ring_coated"): {
        "oracle.json": "53b9ba26c3fd50f293582015ce6c4faf8c68a29add56d4e86c333f15a40834e9",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
    ("simulate", "ring_m1"): {
        "comparison.json": "98ec26814f0564d603393172d1e8c0086ebf01859d7b61d7d5661adbf8c072f0",
        "current.csv": "1239c2ff95d79b7d151b12ad7a83dc79121ac8b0b9bb412f99577d39a0586047",
        "joule.pgm": "8b34b9d50f29eb74476e388a355b35ba8ba534947f683b9fc7ba6e523de1f8f4",
        "path.csv": "a5eb3a1fd31315426995a09be7650bcb1161c360571607a289e1b07d4656dbca",
        "potential.csv": "b1ca196139f8c66e2e7131a69bc369e634277286a4f1cc5136342b00d8694e9a",
        "potential.pgm": "2ea8650616336868f164c386263403d9915118aa7f3a757c5044d83606f2616d",
        "report.json": "8bbe77325e39b3919da6963351dad61fa3032e9467f4e1c26eb26189245ab211",
        "trajectory.csv": "6130f8fce28be0a966babe4f14afaf483f705efcaa70dca08a846ac10015da06",
    },
    ("oracle", "ring_m1"): {
        "oracle.json": "3f2eedc064d8844cadab0b0caff8ba68d116d29ec3b342458f6362de7d428498",
        "path.csv": "a5eb3a1fd31315426995a09be7650bcb1161c360571607a289e1b07d4656dbca",
    },
    ("simulate", "bifurcation_symmetric"): {
        "comparison.json": "705e09217c5642340a6cc0935b3e5d61540f1f3c78c167fc713106cdd5b3c50b",
        "current.csv": "35de26db00d6a84ff2ec11d7fb68642ea1361e3d61c223fd7dbdcbddcd9e2464",
        "joule.pgm": "ea55328b4c360f6aa30c6a44039acb4c9eee093d7fece57dfd599b57210e8127",
        "path.csv": "693abb2fbfcec868e248bd1a87c1646d0e2e5d656cfd1c373db961246edc7045",
        "potential.csv": "906f6118d10bf17bff20a47d6c88c37d5a4c3d017c2663055ddf41e8785d8551",
        "potential.pgm": "e2ed608881a3990219fe6dec9684964769720263b449496de65f7ab4d0bba4a8",
        "report.json": "d6cf6101697227f1096f4523375ddfc590692d46bad5d5f6787fc5450125de24",
        "trajectory.csv": "2dd93de589beb03741a37310c9f6bfc3c7a5dc522b0deb83ebf6622e5ae041cd",
    },
    ("oracle", "bifurcation_symmetric"): {
        "oracle.json": "f4ff80d6bff259d24dbe27869884f08e70b373542198dee26876c860617585f2",
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
    "report.json": "10a8823d526f60d20667de279d157c968cecf5689485d8c33b68f237ba2160cd",
    "trajectory.csv": "7b5bf468133765f9be187bd405ed415dbb27be2d0fdd08a85c1ce89faa4e304f",
}


def test_noisy_pinned_run_matches_golden_digests(tmp_path):
    config = tmp_path / "noise.cfg"
    config.write_text(NOISE_CFG)
    out = tmp_path / "out"
    done = run_cli(["simulate", "--config", str(config), "--out", str(out)], blas_threads=1)
    assert done.returncode == 0, done.stderr
    assert {p.name: _digest(p) for p in sorted(out.iterdir())} == NOISE_GOLDEN


# configs/ring_m2.cfg at 0.25 mm cells (280x280), the grid of the
# benchmark's ring_fine workload.
FINE_CFG = (CONFIGS / "ring_m2.cfg").read_text().replace("cell_size_mm = 0.5", "cell_size_mm = 0.25")

FINE_GOLDEN = {
    "simulate": {
        "comparison.json": "bf2a650f5308a33da05c54f560eb1e21ca44cd772f75f4305599215264237165",
        "current.csv": "3b6d32e492b8a577fd6a3b6d2c6a986cd03058469ea8a20a1075dbe348236158",
        "joule.pgm": "1bd77f8a0e046af96c9397ebfc52bc4be67a76e598e7fe050a92b24ac69779d1",
        "path.csv": "8372878ff9f30c05a488d4ee2ed4219f5adfa73a18f53e82fa45e834342851ee",
        "potential.csv": "2a28e16a68acec0cd896ace4506c109331d403317ccdee05fd8f500295a526fd",
        "potential.pgm": "d38bb1e21cbc239467da8a825e98636b5d1c95f2cb5ae981579632c6b605222a",
        "report.json": "059b8a2f09740aeb26292079249670f9035763685defb20323a808706e1a318d",
        "trajectory.csv": "6335d430bc0db58eae87c5d6f444f83dd8bc50a00f7441851626e223982f2013",
    },
    "oracle": {
        "oracle.json": "615abd2fc1bb4f8eb804c04adc0645190a2013934b1996fd9e3b426a3b08d30a",
        "path.csv": "8372878ff9f30c05a488d4ee2ed4219f5adfa73a18f53e82fa45e834342851ee",
    },
}


@pytest.mark.parametrize("command", sorted(FINE_GOLDEN))
def test_fine_ring_bundle_matches_golden_digests(command, tmp_path):
    config = tmp_path / "ring_m2.cfg"
    config.write_text(FINE_CFG)
    out = tmp_path / "out"
    done = run_cli([command, "--config", str(config), "--out", str(out)], blas_threads=1)
    assert done.returncode == 0, done.stderr
    assert {p.name: _digest(p) for p in sorted(out.iterdir())} == FINE_GOLDEN[command]


# ring_m2 and ring_insulated make the same maze; ring_coated has `+` cells.
GENERATE_GOLDEN = {
    "bifurcation_lock": "bd8566ad8e569fd6a25b768698e8e047e78a2b6a3d39919cdf029aeab73d3e76",
    "bifurcation_symmetric": "7bf1b1a585c4fb08103c30d798d73b451b41f6f7bbdde30b53f90e6f20405095",
    "ring_coated": "94376c572748ecb0f13fe06834031c1e3003b1273b892a4ee317e7397c35158e",
    "ring_insulated": "0a752af3a740836ed36e9cbfa6254a0d4f22ec7a6d82c2f1beb6f1dcbcf01472",
    "ring_m1": "babbe87794582b102ed6809f27687b40b7a66223066a1327c8b7556e03a491df",
    "ring_m2": "0a752af3a740836ed36e9cbfa6254a0d4f22ec7a6d82c2f1beb6f1dcbcf01472",
}


@pytest.mark.parametrize("name", sorted(GENERATE_GOLDEN))
def test_generated_maze_file_matches_golden_digest(name, tmp_path, capsys):
    out = tmp_path / f"{name}.maze"
    assert main(["generate", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_GOLDEN[name]
