"""Golden outputs: sha256 digests of what the CLI writes over a fixed matrix.

Each case runs ``commgraph.cli.main`` in-process from a scratch directory
and digests every file it writes, its exit code and its stdout and stderr.
The matrix covers every kind at two seeds on both promise sides (``gen``
then ``verify --edges``), the optional per-kind flags, the padding path,
one ``simulate`` per reference distinguisher plus the edge sampler on every
grid kind, two small ``sweep`` runs and the ``gen --help`` text, which pins
the flag set.  The ``graph`` group reruns every ``gen`` case but leaves out
the instance JSON, so it pins the graph and its ``verify`` report apart from
the x and y a seed draws: a change to the promise draw that keeps each
seed's shared coordinates moves only the ``gen`` digests.

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
    "gen:clique-hiding/seed1/intersecting": "0911fecd3b1a5d8cb9546770ab80da548a7a2b6f0a3965163b233c3b219f6941",
    "gen:clique-hiding/seed1/disjoint": "b6beec2cbd4a6772724ae79878f6cab5482ae80337197757f07ff386ec7b5611",
    "gen:clique-hiding/seed2/intersecting": "a14f4a35fb3357ab534744766dd5e1f2f13aa32531415f4161906d9568f06dc9",
    "gen:clique-hiding/seed2/disjoint": "9a313454fea8b73dd3a1f5fdef7da962c01bde70505a54796f4a54632f038b27",
    "gen:triangle/seed1/intersecting": "708e1dccf008fe5bebbb2934ec55e7095117e63bc3851cf4303073d163e13642",
    "gen:triangle/seed1/disjoint": "17b8e16800800d3928649c944d3918f15ade8c878fe98a9e811335c6cd851c02",
    "gen:triangle/seed2/intersecting": "d0ddb33d4bc8dbed1ed14015a9fd677783404daf81fa999e2fc31f23db7f9f54",
    "gen:triangle/seed2/disjoint": "d6227cbc1b31f89cd87069fd4723b48b8e6592cecf00e758a70bf2fda54a53da",
    "gen:r-clique/seed1/intersecting": "aa3b842d3544dbb402f68e658036b24d10711d0f12f661299b386ed373371272",
    "gen:r-clique/seed1/disjoint": "753906467d1faebec1d43383c0f4b9877a8a91e0891fdd82807e9cd4bbb69da3",
    "gen:r-clique/seed2/intersecting": "80d7500dc8eb5ebe517445fcd66586c90c7d6d4af34af20e6c1011c0dd599ec0",
    "gen:r-clique/seed2/disjoint": "3949ec839100d353a0eb7f66aaf6c0f14dc3a7666803840a90e92f051bc942ae",
    "gen:connectivity/seed1/intersecting": "2071a3927318588cc599c2bc48d97767fc249338b50b45159c9399a5f151815a",
    "gen:connectivity/seed1/disjoint": "19ee30f810676d6ab70b854128c553c9e69b5db9bd6117604ae466a266d63409",
    "gen:connectivity/seed2/intersecting": "f9967c506284bebdff50bb862c016172893bd333f315e94c800ca99a1106b039",
    "gen:connectivity/seed2/disjoint": "b78b316183dfa754d626e961380a662c63a9e6bc3d35a25223dc7913180fb00d",
    "gen:degree-only/seed1/intersecting": "b5c5832ada1c0f4404d440af7d251ac7ea6e42dea4a4ddea6c2332a0ee3efb57",
    "gen:degree-only/seed1/disjoint": "ae585c6af04dfb39ad7dc353d69bd2eba59f50cdd861b7999c004c048ecbb905",
    "gen:degree-only/seed2/intersecting": "280ed14b3af54d2d28c70f8ad6e6f7d557d0d55fe0024b644ef2b51f3f1ceee8",
    "gen:degree-only/seed2/disjoint": "192d11be3fb9f3648558d77b00a343ee2a25364737fce098db39127a8cfd4c78",
    "gen:moments-hiding/seed1/intersecting": "d1839125b1dc86a4558f5c73986758a755fc2743fee1de2e5c85bd7cc8ee8219",
    "gen:moments-hiding/seed1/disjoint": "95898966d4ea8dcfd1f4de86c509ed88de3b95ae9e629cfe1f257427482908da",
    "gen:moments-hiding/seed2/intersecting": "9a0fb86f58c9f2c3a72d0b49f872dcb3616c200687d2def55abe901dd9f74e69",
    "gen:moments-hiding/seed2/disjoint": "00e6ee57b66b2627ca961604d6ce258159b932c380577fe11a29ec58f66f9bd9",
    "gen:moments-block/seed1/intersecting": "822e4dd6f2c45031aec3fdd56d8a1a2c96c15418412f1941bda8601e9ec5485e",
    "gen:moments-block/seed1/disjoint": "84d08cb3da358ef57b73d2c654b485a31c59cae06894fc019de4cab399d9ac98",
    "gen:moments-block/seed2/intersecting": "ef0cc68be222d28be0a244c36ab339c5e14276d37e7fe648f8ffe41238bc7a72",
    "gen:moments-block/seed2/disjoint": "5fb44073da458a7fa6a56f0b5afcbac70430d274266182d28d613f7c4962ee09",
    "gen:clique-hiding/augment-connect": "89375fea10220e22654f0e36a6bf2ddae725dd3d69090dd5d732b9b50d05cbfd",
    "gen:triangle/n-s-size": "7d09fe2c7663012fde6d1af567722bb24aa75079d67cc0d9c5508d333d7010b2",
    "gen:r-clique/s-clique-budget": "254dcae1792e06cf385e43ace329dc39c33ea2742358a31be14b0739620d026f",
    "gen:degree-only/promise-disjoint": "3886dfb73034f8ea30a56784926de2c472ee391b8abcb55fec11c6fc59cff841",
    "simulate:pair-probe": "0f9787bd5dad5cc1ac260c1359ac335ec81edea82c2f0487f95bdd17ba9d1e01",
    "simulate:degree-scan": "9ba58d7bcc8cb907eb4db206fab65f36480d28e9a0379fdf8d3b1c0c062a82f5",
    "simulate:edge-sample-tester": "6f420bf3fecb920ebc2a669cf17688545cac8af96230eab4f26f20abce9af497",
    "sweep:clique-hiding": "02bde867d14b7de11e807965c33c3fd8e3ab213c23960596b29a9c4bfedbedcb",
    "sweep:triangle": "20499785365a59c758ac0fed528eb2fb3ee16c1f5a88ac18c6c3d61d8f177ac1",
    "gen:triangle/s-size-above-l": "67c9d0e6cda97cd894790eea71a2ee0d8feafcaa4e79ee0ec63ce11485f47f55",
    "gen:connectivity/n-below-4l/intersecting": "3e819d315768b2cf970b648678bde11431c1698113e35511989bad2aa7349970",
    "gen:connectivity/n-below-4l/disjoint": "d326d1f94f15aedf6554be89b687e0e4f047963f27782e97e06063b4600aac2a",
    "simulate:edge-sample-tester/r-clique": "64941be361dbcd85b6501db3fca7f5afc55ca2b9c518969fd949b79dace096f4",
    "simulate:edge-sample-tester/r-clique-s-clique-budget": "a9627ba0597e9d3d28fe6776bd0f81715681741bf93a271900e416d78e0a4ec9",
    "simulate:edge-sample-tester/connectivity": "f8f46ce7663c6ec5a5b9bc7e10825d0885a22a21fe0932854c6a2d4261b30931",
    "graph:clique-hiding/seed1/intersecting": "ba7bab348374aff905ab25c10ae070c000d97363e0c05f3b2a6ef32d1448599b",
    "graph:clique-hiding/seed1/disjoint": "d6b85e16c1d7a6b6a38b9f7621c0a4600ad3d2eb5d528c6a7bb7d0e8bed53a28",
    "graph:clique-hiding/seed2/intersecting": "4ab7cbed1cd032612141d042aa906bcdde5c3d41416a690b0641c49a09d1c299",
    "graph:clique-hiding/seed2/disjoint": "d6b85e16c1d7a6b6a38b9f7621c0a4600ad3d2eb5d528c6a7bb7d0e8bed53a28",
    "graph:triangle/seed1/intersecting": "ce375b55e87eb0f46a6f1cb92e37ddfbf0eae26bfdd3f16bf39257fc66fbbed3",
    "graph:triangle/seed1/disjoint": "e121f983f381b96fd9e910cdda674e3373b72871c870753308a86153f2c0991e",
    "graph:triangle/seed2/intersecting": "f6e1c02f57a66b30b019b0af093495163a8ee70c91269df602de7d223a3d5db3",
    "graph:triangle/seed2/disjoint": "e121f983f381b96fd9e910cdda674e3373b72871c870753308a86153f2c0991e",
    "graph:r-clique/seed1/intersecting": "83fa9e4502cd697854424ab1bde12317a4c35c88bf6625b14625d59771f249e8",
    "graph:r-clique/seed1/disjoint": "0c771699ce408881eb94880bd0396870a54b8df43842d9aac04394e9fd5e4ca3",
    "graph:r-clique/seed2/intersecting": "aabcd5ad4ac8c6c43f4a64bbc019c72317f247d7a4a6063c1dfa37dbaf0cc32c",
    "graph:r-clique/seed2/disjoint": "0c771699ce408881eb94880bd0396870a54b8df43842d9aac04394e9fd5e4ca3",
    "graph:connectivity/seed1/intersecting": "d833f3ffb96388bcd57d5e3bac9e0934c4ff87b7bc86424933e0ad15cdd6c7b4",
    "graph:connectivity/seed1/disjoint": "b89e2f4b6545db39edf0f1de924215146f0c4a261f715048f45987e91adac5e2",
    "graph:connectivity/seed2/intersecting": "14fd4e5464ace5bff51a2322a0472b6565fca8f81a8d82ff6575c61c623131b1",
    "graph:connectivity/seed2/disjoint": "b89e2f4b6545db39edf0f1de924215146f0c4a261f715048f45987e91adac5e2",
    "graph:degree-only/seed1/intersecting": "790fa2f4747f1468bf8312c3f7e0578711258f1ba29c922cecca70bea92de9a7",
    "graph:degree-only/seed1/disjoint": "160574fe1d5abdb2f7f73a445eb19239b6fed437c6bafd1b650c63b305846791",
    "graph:degree-only/seed2/intersecting": "097e7a3e0e0a9eac2f9e7be6af6e661a9120e42f33c3313ea460943b81b1ee12",
    "graph:degree-only/seed2/disjoint": "160574fe1d5abdb2f7f73a445eb19239b6fed437c6bafd1b650c63b305846791",
    "graph:moments-hiding/seed1/intersecting": "a3be4be58d262286cec6da78d60f0588a189b0b636604d1a3c98669f69800107",
    "graph:moments-hiding/seed1/disjoint": "50cd60eb23df4ff3e5df94e78be3b75c097d225b8341fb25f278ab7d65e6ab12",
    "graph:moments-hiding/seed2/intersecting": "a3be4be58d262286cec6da78d60f0588a189b0b636604d1a3c98669f69800107",
    "graph:moments-hiding/seed2/disjoint": "50cd60eb23df4ff3e5df94e78be3b75c097d225b8341fb25f278ab7d65e6ab12",
    "graph:moments-block/seed1/intersecting": "eec0a110afa853069b011293503e4ce75fc99bef6702d8b7601299b299c68223",
    "graph:moments-block/seed1/disjoint": "899195a218101ad7e78e9d999227c9709cdf49e02c80248047c6548cbb819b7e",
    "graph:moments-block/seed2/intersecting": "5646d10f36cace21c60b50804bdbd26c113d5195657ceea17175bd9492952aa7",
    "graph:moments-block/seed2/disjoint": "899195a218101ad7e78e9d999227c9709cdf49e02c80248047c6548cbb819b7e",
    "graph:clique-hiding/augment-connect": "46367ef2f7faca6aa2a9e49ac7965bcdf87779c0f7f010f927df47797afe84c3",
    "graph:triangle/n-s-size": "1cea10404a6f7a0186d94682fdeb93a12475e60cf95393fb31b9b9b59037fbff",
    "graph:r-clique/s-clique-budget": "ebedbbe300554a7f1142797b6b5a477585ff6f3863049a4d848f4687689a4bca",
    "graph:triangle/s-size-above-l": "16846af3a890de79a4d5555024d6c29333c753332f271e0531f6bae30dae67b9",
    "graph:connectivity/n-below-4l/intersecting": "c9427fe4dc9d7921a8920090d64e072bd5c119459a67b6500612d582c308572f",
    "graph:connectivity/n-below-4l/disjoint": "2bf3b5091b4410b9ea022e5172bcd342165266d5c8826f00f3ff31eb45ec1c2a",
    "graph:degree-only/promise-disjoint": "94f24d5b74106ea80720bae64d1997cc8253d7c7ca8f4c33759e596500335bc6",
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
    if group in ("gen", "graph"):
        # the graph group leaves out the instance JSON, whose x and y pin the
        # promise draw's coordinate stream, and keeps every graph-derived output
        files = ["inst.json", "inst.edges"] if group == "gen" else ["inst.edges"]
        assert rec.run(["gen", *GEN_CASES[case], "--out", "inst.json"], files) == 0
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
    + [("graph", c) for c in GEN_CASES]
    + [("simulate", c) for c in SIMULATE_CASES]
    + [("sweep", c) for c in SWEEP_CASES]
    + [("help", c) for c in HELP_CASES]
)


@pytest.mark.parametrize("group,case", CASES, ids=[f"{g}:{c}" for g, c in CASES])
def test_golden_output(group, case, tmp_path, monkeypatch, capsys):
    assert _digest(group, case, tmp_path, monkeypatch, capsys) == DIGESTS[f"{group}:{case}"]
