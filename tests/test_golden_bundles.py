"""Golden bundles: three committed example configs must keep producing the
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
budget derived from the field changes no byte. report.json and oracle.json are
hashed after dropping their timestamp, serialised the way the pipelines
write them. A change that alters any number on purpose updates these
digests and says so in CHANGES.md.

The run goes through `dropmaze simulate` in a child interpreter with one
BLAS thread, as the benchmark runs it: the solver's dot products come
from OpenBLAS, whose threaded reduction order, and so the last bits of
the potential, depends on the thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dropmaze

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXIT_CODES = {
    ("simulate", "bifurcation_lock"): 2,
    ("simulate", "ring_m2"): 0,
    ("oracle", "bifurcation_lock"): 0,
    ("oracle", "ring_m2"): 0,
    ("simulate", "ring_coated"): 0,
    ("oracle", "ring_coated"): 0,
}
RUN_CLI = "import sys; from dropmaze.cli import main; sys.exit(main(sys.argv[1:]))"

GOLDEN = {
    ("simulate", "bifurcation_lock"): {
        "comparison.json": "8ea745534ffdc621fc865a2ea143ad0dbbe84ff919409a0e9e4bebd169b388cb",
        "current.csv": "0a361db01a0f4ff53f68f41cd9e5da6595933b35f6980aeb0cdb6e2a9579fc56",
        "joule.pgm": "e7741d68330462f8353d955bd175882e877e2a053abc20ad2e1e1bc7e8390977",
        "path.csv": "19d450d4a427acfa00bc9cc0ca80e222630af11154ade9bac4148002b8b85d73",
        "potential.csv": "2d712ef446b7020735d24647be6322fd71e8948419a65b66d2dcfd6769de887f",
        "potential.pgm": "8e23517a71d32e24552a48e4b0ed570b936643e6558952d542471ab11c9d672f",
        "report.json": "bf7a4bff37b2a8038fd3162e8cc84c6b4e42442fe06223c5f4dd01e163450f6d",
        "trajectory.csv": "a6ffc785cd9f41309538676a77c1839d3b55b4ed8815477c57cd23d0183a1a45",
    },
    ("simulate", "ring_m2"): {
        "comparison.json": "2c281c6831ea72a719623b78337cb5a0147238eaddb5f950ec41fb914fd94cb5",
        "current.csv": "a985ff9bc0261f23b94c2675329cd82029879cd28e05a62666920b895c4609b7",
        "joule.pgm": "db99568128f4041fa4aec36fa578586ff0248726f9af5b44166268ad08323c45",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "ae873406e0c9043c99784100e5d520a23e65da64c789448594953f1cd7b87624",
        "potential.pgm": "e01b83fa94d79d1f3144caf7b2472cae2ddf37179eac82a28deaece887fa1fba",
        "report.json": "9eef652299c981ffadef989aadc729c2afaf7a9bdf380c01065a0977c16b4881",
        "trajectory.csv": "9b8009aa88d71de16b9a1cf63bb0030e2a255c19e3c9616e1efeef792e41b680",
    },
    ("oracle", "bifurcation_lock"): {
        "oracle.json": "7baac37f9832afd7ec4ec7c241adf4b9796f1927687d1054f2a0a945d1ebc7ec",
        "path.csv": "19d450d4a427acfa00bc9cc0ca80e222630af11154ade9bac4148002b8b85d73",
    },
    ("oracle", "ring_m2"): {
        "oracle.json": "cea79277bde3b0acf5b1444da9ef54a09d4df5d9aa347abae9ea8014a3af9d14",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
    ("simulate", "ring_coated"): {
        "comparison.json": "b12834153949cdc785b0d8474fa6347cc700da00511d73b2231bfbd6af53539b",
        "current.csv": "b8a54a4d83a39e603750c8dd853793696dcb2d0860991c807a005691009489bb",
        "joule.pgm": "2376f390dff05cd96a50f870fc31271b6cdcb5270e19b0a76e261909e6580acf",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
        "potential.csv": "e2a61d47ba5870f607bc403d6d506600b8c8b1390a832a3426917181084a8027",
        "potential.pgm": "50762467b317a38559553d44dc04e701a4d3d28c11b2cbb00d6313ea72802a40",
        "report.json": "27d2c7fc39d703b9c332f298c9d849035c7e7bc9550612d9c202c9444c4e840f",
        "trajectory.csv": "6bba7824dd8f351a785391ed0e9fd5d15f3d7c1b62a0145934f06b6016de45f0",
    },
    ("oracle", "ring_coated"): {
        "oracle.json": "43901055856e2a98fd59a115faa8585873e097b2c609e89c03267cdbafd7e842",
        "path.csv": "e2a7403c3afd5c55fb25bf0eee009c375ad498c112638e25f693c51612fe7f69",
    },
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in ("report.json", "oracle.json"):
        report = json.loads(data)
        report.pop("timestamp")
        data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "command, name",
    [
        pytest.param(command, name, id=name if command == "simulate" else f"{command}-{name}")
        for command, name in GOLDEN
    ],
)
def test_bundle_matches_golden_digests(command, name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(dropmaze.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    args = [command, "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == EXIT_CODES[command, name], done.stderr
    digests = {p.name: _digest(p) for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN[command, name]
