"""Golden outputs: sha256 digests of what the CLI writes over a fixed matrix.

Each case runs ``commgraph.cli.main`` in-process from a scratch directory
and digests every file it writes, its exit code and its stdout and stderr.
The matrix covers every kind at two seeds on both promise sides (``gen``
then ``verify --edges``), the optional per-kind flags, the padding path,
one ``simulate`` per reference distinguisher plus the edge sampler on every
grid kind, two small ``sweep`` runs and the ``gen --help`` text, which pins
the flag set.

The digests pin the byte streams of CPython's ``random`` module as well as
commgraph's own behaviour, and the help text pins argparse's formatting at
80 columns.  The README states that those streams are an
implementation detail, so a Python release that changes them changes these
digests with no commgraph change.  A change that alters an output on
purpose updates the digest here and names the output it changed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from commgraph.cli import main

KIND_FLAGS = {
    "clique-hiding": ["--l", "3", "--blocks", "6"],
    "triangle": ["--l", "4", "--k", "2"],
    "r-clique": ["--r", "4", "--l", "3", "--k", "2"],
    "connectivity": ["--k", "2", "--l", "4", "--n", "20"],
    "degree-only": ["--n", "12", "--k", "2"],
    "moments-hiding": ["--s", "2", "--alpha", "2", "--c", "1", "--m-tilde", "8",
                       "--blocks", "3"],
    "moments-block": ["--s", "2", "--alpha", "4", "--c", "4", "--m-tilde", "257",
                      "--n-side", "16"],
}

GEN_CASES = {
    f"{kind}/seed{seed}/{side}": ["--kind", kind, *flags, "--seed", str(seed), "--side", side]
    for kind, flags in KIND_FLAGS.items()
    for seed in (1, 2)
    for side in ("intersecting", "disjoint")
}
GEN_CASES.update({
    "clique-hiding/augment-connect": [
        "--kind", "clique-hiding", "--l", "3", "--blocks", "4", "--augment-connect",
        "--base-n", "5", "--base-m", "6", "--seed", "3", "--side", "intersecting",
    ],
    "triangle/n-s-size": [
        "--kind", "triangle", "--l", "3", "--k", "2", "--n", "30", "--s-size", "2",
        "--seed", "3", "--side", "intersecting",
    ],
    "r-clique/s-clique-budget": [
        "--kind", "r-clique", "--r", "4", "--l", "3", "--k", "1",
        "--s-clique-budget", "4", "--seed", "3", "--side", "intersecting",
    ],
    "triangle/s-size-above-l": [
        "--kind", "triangle", "--l", "3", "--k", "2", "--s-size", "5",
        "--seed", "3", "--side", "intersecting",
    ],
    "connectivity/n-below-4l/intersecting": [
        "--kind", "connectivity", "--k", "2", "--l", "4", "--n", "10",
        "--seed", "3", "--side", "intersecting",
    ],
    "connectivity/n-below-4l/disjoint": [
        "--kind", "connectivity", "--k", "2", "--l", "4", "--n", "10",
        "--seed", "3", "--side", "disjoint",
    ],
    "degree-only/promise-disjoint": [
        "--kind", "degree-only", "--n", "18", "--k", "2", "--promise", "disjoint",
        "--seed", "3",
    ],
})

SIMULATE_CASES = {
    "pair-probe": [
        "--kind", "clique-hiding", "--l", "2", "--blocks", "16",
        "--distinguisher", "pair-probe", "--budget", "24", "--trials", "20", "--seed", "4",
    ],
    "degree-scan": [
        "--kind", "degree-only", "--n", "48", "--k", "2",
        "--distinguisher", "degree-scan", "--budget", "6", "--trials", "20", "--seed", "4",
    ],
    "edge-sample-tester": [
        "--kind", "triangle", "--l", "4", "--k", "2",
        "--distinguisher", "edge-sample-tester", "--budget", "12", "--trials", "20",
        "--seed", "4",
    ],
    "edge-sample-tester/r-clique": [
        "--kind", "r-clique", "--r", "4", "--l", "3", "--k", "2",
        "--distinguisher", "edge-sample-tester", "--budget", "12", "--trials", "20",
        "--seed", "4",
    ],
    "edge-sample-tester/r-clique-s-clique-budget": [
        "--kind", "r-clique", "--r", "4", "--l", "3", "--k", "1", "--s-clique-budget", "4",
        "--distinguisher", "edge-sample-tester", "--budget", "12", "--trials", "20",
        "--seed", "4",
    ],
    "edge-sample-tester/connectivity": [
        "--kind", "connectivity", "--k", "2", "--l", "4", "--n", "20",
        "--distinguisher", "edge-sample-tester", "--budget", "12", "--trials", "20",
        "--seed", "4",
    ],
}

HELP_CASES = {"gen": ["gen", "--help"]}

SWEEP_CASES = {
    "clique-hiding": [
        "--kind", "clique-hiding", "--l", "2", "--distinguisher", "pair-probe",
        "--grid", "4,8,16", "--trials", "60", "--seed", "5",
    ],
    "triangle": [
        "--kind", "triangle", "--k", "1", "--distinguisher", "edge-sample-tester",
        "--grid", "4,9,16", "--trials", "60", "--seed", "5",
    ],
}

DIGESTS = {
    "gen:clique-hiding/seed1/intersecting": "baae7cda9aed358df118ce510e31d4dd66df3aeb10986a5e6b5976dd3760ebcf",
    "gen:clique-hiding/seed1/disjoint": "0794082709586adfad5a3288c52f2ea19e1802923220f72e282adb2e8c2844d4",
    "gen:clique-hiding/seed2/intersecting": "bf9b3abcb9af579ce78885a59be62a3cb1bfa9abcf8a7888ba673d54068d7e56",
    "gen:clique-hiding/seed2/disjoint": "5b21fae95050ed0b436307e151d91765416b032786f4db6b7ca6203b34646433",
    "gen:triangle/seed1/intersecting": "1a69feb887f8504139091454eea1c60e049ad86a9794e4d02efbac96a4c4f277",
    "gen:triangle/seed1/disjoint": "5e449d99733c11fb370e51df78aecc35be2b85bd543d38fb469c16d20befbcee",
    "gen:triangle/seed2/intersecting": "a8cb70b0030af5e03a220dd0ecea696aea694ef0f9a98a5c8839facbc6667d64",
    "gen:triangle/seed2/disjoint": "8475ef59c31b894d0518509502c9f709c6a6a62846e1e3abd436597bd0e5c97b",
    "gen:r-clique/seed1/intersecting": "1ae67d5f69c830013bab271cf1de5e69e857588f4b41dab97dfe5cab8a0777cb",
    "gen:r-clique/seed1/disjoint": "433de907afca5c879f680ceea059c225ee2620f39026007a602946c9df4d3ce3",
    "gen:r-clique/seed2/intersecting": "fa50a8f1a03cfd1871ae1a1dfff074590da44f8bc46ee2e24c651ffbd6ecce1c",
    "gen:r-clique/seed2/disjoint": "7e0eedeca3e2ee00261858ccefed9274a2dfe30571403885ae2ab0a979004718",
    "gen:connectivity/seed1/intersecting": "dd47fedeb4374b6e79fa243d606326a25408714eb0cde3a879df4d8dfafce6bf",
    "gen:connectivity/seed1/disjoint": "3cf0f8e490e736a667c2844d768078ebf1fad36288b9427195bcf5e3f08ce3a8",
    "gen:connectivity/seed2/intersecting": "894da43590bd47d68e3bd2638375f0048dde6b53da6004ae24e9365a98cb031c",
    "gen:connectivity/seed2/disjoint": "ff141991b5242fa5c69f492be577d0bdfe72175a93f546fe325681f6def1fced",
    "gen:degree-only/seed1/intersecting": "c55aa96265c4c280784b769755b4715a4b8044eb037254c5c6aa022af2502957",
    "gen:degree-only/seed1/disjoint": "1f3a7082c79922b480457a3e10f2bfbcefeff156ba2802eb1fbafbcd4de442be",
    "gen:degree-only/seed2/intersecting": "087d704aed5283664ed8e4c1b968e19194e732091fc70280f0115e4a97093751",
    "gen:degree-only/seed2/disjoint": "5195a19d25cd36aeb2865fced21da8a4c6b515d05734327ffe55d232c6c7a89a",
    "gen:moments-hiding/seed1/intersecting": "9bcd3f0310d6e5312a7f6ea03ce4f1cb866458a9867d45886d27375c676ab525",
    "gen:moments-hiding/seed1/disjoint": "cc13e1cb0299cd60be870e9bef39b473b07af729ffcc95660610c19a38be190e",
    "gen:moments-hiding/seed2/intersecting": "9a0fb86f58c9f2c3a72d0b49f872dcb3616c200687d2def55abe901dd9f74e69",
    "gen:moments-hiding/seed2/disjoint": "e41fd95dd2851002eaab2ce3c276c6a24789c84b9a685cf39b5b6d1c1a4d1671",
    "gen:moments-block/seed1/intersecting": "7116da73e7299f56e4378fb3235108359c0b2918fcc73099a7df294850aced9d",
    "gen:moments-block/seed1/disjoint": "f0595cf8a8816d5a18b6abcde8a4048e43bd22fc6e3403d3f8f37deea8805d4a",
    "gen:moments-block/seed2/intersecting": "595dcfe7b526cbd26af4ef40f3b7d20a9a51e9edaed19017293783acbc0561fc",
    "gen:moments-block/seed2/disjoint": "6dc3070ea9ac08b08064cc6d1ace4c140abbf356d9ed5731e48688c9946e9a39",
    "gen:clique-hiding/augment-connect": "4be8a7ae4b118d51010cc43b8158db290b0fe0e2b8c30dca4ab62a849db00508",
    "gen:triangle/n-s-size": "0e9488b536ecc68036e97acda88cd7ee18542e7139eeb0e385e17a7e14e6a013",
    "gen:r-clique/s-clique-budget": "665652ce227f1095c0a2aa8c100c3c32b92519ef6bca5cc0ce340acf82a20c12",
    "gen:degree-only/promise-disjoint": "13e2bd35e1460853aae06562fba3bcd1392a59780e9173bf5660407dffcf6e2d",
    "simulate:pair-probe": "0f9787bd5dad5cc1ac260c1359ac335ec81edea82c2f0487f95bdd17ba9d1e01",
    "simulate:degree-scan": "9ba58d7bcc8cb907eb4db206fab65f36480d28e9a0379fdf8d3b1c0c062a82f5",
    "simulate:edge-sample-tester": "6f420bf3fecb920ebc2a669cf17688545cac8af96230eab4f26f20abce9af497",
    "sweep:clique-hiding": "02bde867d14b7de11e807965c33c3fd8e3ab213c23960596b29a9c4bfedbedcb",
    "sweep:triangle": "20499785365a59c758ac0fed528eb2fb3ee16c1f5a88ac18c6c3d61d8f177ac1",
    "gen:triangle/s-size-above-l": "cdb9ac1e49826d54c0a8ea3c3b820c54bec5209e28fc852e9c275ab498851fea",
    "gen:connectivity/n-below-4l/intersecting": "66f08d2c8d63c4e7dc6ec0528990bb5c97ff43f8170b82704cdff3418982b39a",
    "gen:connectivity/n-below-4l/disjoint": "1a6d59e10a09a81c8b37f761761c774c81a2847ce7781ea6d230bc826ca8a7f9",
    "simulate:edge-sample-tester/r-clique": "64941be361dbcd85b6501db3fca7f5afc55ca2b9c518969fd949b79dace096f4",
    "simulate:edge-sample-tester/r-clique-s-clique-budget": "a9627ba0597e9d3d28fe6776bd0f81715681741bf93a271900e416d78e0a4ec9",
    "simulate:edge-sample-tester/connectivity": "f8f46ce7663c6ec5a5b9bc7e10825d0885a22a21fe0932854c6a2d4261b30931",
    "help:gen": "42469504a4ccbf8cfbfab7e27aefdf368a789fc341e6e036c6a0349f0d151fc4",
}


class Recorder:
    """Runs CLI commands and folds every output into one sha256."""

    def __init__(self, workdir: Path, capsys):
        self.workdir = workdir
        self.capsys = capsys
        self.hash = hashlib.sha256()

    def _add(self, label: str, data: bytes) -> None:
        self.hash.update(f"{label}:{len(data)}\n".encode())
        self.hash.update(data)

    def run(self, argv: list[str], files: list[str]) -> int:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse leaves this way after --help
            code = exc.code
        out, err = self.capsys.readouterr()
        self._add("exit", str(code).encode())
        self._add("stdout", out.encode())
        self._add("stderr", err.encode())
        for name in files:
            path = self.workdir / name
            self._add(name, path.read_bytes() if path.exists() else b"<missing>")
        return code


def _digest(group: str, case: str, tmp_path: Path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    rec = Recorder(tmp_path, capsys)
    if group == "gen":
        assert rec.run(["gen", *GEN_CASES[case], "--out", "inst.json"],
                       ["inst.json", "inst.edges"]) == 0
        assert rec.run(["verify", "--instance", "inst.json", "--edges", "inst.edges"], []) == 0
    elif group == "simulate":
        assert rec.run(["simulate", *SIMULATE_CASES[case], "--transcripts", "t.csv"],
                       ["t.csv"]) == 0
    elif group == "help":
        monkeypatch.setenv("COLUMNS", "80")
        assert rec.run(HELP_CASES[case], []) == 0
    else:
        assert rec.run(["sweep", *SWEEP_CASES[case], "--out", "sweep.csv"],
                       ["sweep.csv"]) == 0
    return rec.hash.hexdigest()


CASES = (
    [("gen", c) for c in GEN_CASES]
    + [("simulate", c) for c in SIMULATE_CASES]
    + [("sweep", c) for c in SWEEP_CASES]
    + [("help", c) for c in HELP_CASES]
)


@pytest.mark.parametrize("group,case", CASES, ids=[f"{g}:{c}" for g, c in CASES])
def test_golden_output(group, case, tmp_path, monkeypatch, capsys):
    assert _digest(group, case, tmp_path, monkeypatch, capsys) == DIGESTS[f"{group}:{case}"]
