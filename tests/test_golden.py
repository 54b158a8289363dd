"""Pinned stdout digests: refactors must leave these reports byte-identical."""

import hashlib

import pytest

from grassmann_lab import coreness
from grassmann_lab import graph as graph_module
from grassmann_lab.cli import main
from grassmann_lab.fixture import default_fixture_path
from grassmann_lab.report import coreness_report_dict, to_json

FIXTURE = str(default_fixture_path())

# (command, exit code, sha256 of stdout); the word FIXTURE stands for the shipped fixture
GOLDEN = [
    (
        "coreness --q 2 --n 4 --m 2 --fixture FIXTURE",
        0,
        "2817837e1df642b6e2bb801a5d09f5b851084f9428d3282c7a20ce1a86a193b3",
    ),
    (
        "coreness --q 3 --n 4 --m 2",
        0,
        "f7ae82bc4811646270e076e2399ba8c346b46b5e105a2905d72449c6b2910314",
    ),
    (
        "coreness --q 2 --n 5 --m 2",
        0,
        "cbd8c971984b4a6040b787c2b7effef4d85f20b8c2ef1c860c60095e18aaf25a",
    ),
    (
        "coreness --q 2 --n 6 --m 3 --brute-bound 2000",
        0,
        "b7e0ba7b64b87e20ed46f22072164fe45aac3c312ab44c36ae0cb4b7aa9e2f48",
    ),
    (
        "coreness --q 2 --n 7 --m 3",
        0,
        "a0a3cfe7efde21de64b80aa07bcaf13cc4292b14076ba63d776e1dcdfdb3ef54",
    ),
    (
        "verify --q 2 --n 4 --m 2",
        0,
        "84ba7dd12ac5017006acb41bfc1833ae6e39ec3237b2eab543e06131cc22478a",
    ),
    (
        "verify --q 3 --n 4 --m 2 --format text",
        0,
        "f0934fa8248596f29bfee97d11c4d30d615b7fa0493c1912359325933e6f4197",
    ),
    (
        "verify --q 2 --n 5 --m 3",
        0,
        "7a80fc72b42bef306ab4a4d38a962490698a283631e4303d44f771412fe3c48a",
    ),
    (
        "qbinom --n 8 --m 3 --at 2 --q-max 16",
        0,
        "fda2b1ee10ff2d6fb8c8e1a341753f6e4be49a5c172983d72fc79880c6468b62",
    ),
    (
        "qbinom --n 80 --m 40",
        0,
        "6e9a67e82d5bb9440faabf77faf28669f4a237e358a475672fd6d19d7423fcad",
    ),
    (
        "qbinom --n 24 --m 12 --at 2048 --q-max 2048",
        0,
        "f40c6694ae6e2bec228a5e734adb0febcc77a0434e8cf8daa6e6a1dea205a077",
    ),
    (
        "scan --n 8 --m 3 --q-max 20000",
        0,
        "f4673ce7102cfc247b911665e40cdbf9a64a5210a879d75e0ee5dfcfd711acb1",
    ),
    (
        "scan --n 5 --m 2 --q-max 64",
        0,
        "390f212151e692b0009262f700878b78929b7f3972d1872c21d66570574a4669",
    ),
    (
        "build --q 2 --n 4 --m 2 --format json",
        0,
        "ad70ea73e692be6eb16d8f333b4f668f5203a03c230eb618a8f2353a63f8a1e2",
    ),
    (
        "build --q 3 --n 4 --m 2",
        0,
        "d3e438fbbb12801eba8d48b44daa7ae0e8dcfaca2f20b16f944c6794d9d5d086",
    ),
    (
        "build --q 4 --n 4 --m 2 --format json",
        0,
        "dbcdd95a904c7a0538d2c2e1ed3eedf99f304e4f338f0b8d86031019d9a2e141",
    ),
    (
        "build --q 2 --n 6 --m 4 --format dot",
        0,
        "0370c8da88371a07b7fb9bb0224e608836260b1bbaeb0343771a2d88407d8d79",
    ),
    (
        "build --q 2 --n 3 --m 1 --format json",
        0,
        "3383f62aa416df2d35c817cca9e527c6f934459ea4ad9ef0175a75beabfeea83",
    ),
    (
        "build --q 2 --n 5 --m 2 --format json",
        0,
        "6c9058444893156cd9c986dab97b01eab97d84a99667571345e58df47b14a1d4",
    ),
    (
        "scan --n 8 --m 3 --q-max 2000",
        0,
        "a567cb92ce313928bca8edc946ffb7320106823cc27c625500c50b887eee6e4d",
    ),
    (
        "qbinom --n 9 --m 7",
        0,
        "4fdf1a0db2617919b8a547103137e8ae4b6e400a2c71247f8aa3a949418efc81",
    ),
    (
        "qbinom --n 33 --m 12",
        0,
        "51180aec8d4a522eccbd5d6e2170c8372308526da1c10e7e7f991bee7cd22db7",
    ),
    (
        "qbinom --n 243 --m 30 --format text",
        0,
        "79ba4e75feb1a90701f0e0ac6a01444c56222a2f614f15c1f744d474e8357ee9",
    ),
    (
        "qbinom --n 8 --m 3 --at 2 --q-max 16 --format text",
        0,
        "40e4aa9eb91a5c9deced0ebec605ecf640a53597d286915d50ed2c4a34ff10cd",
    ),
    (
        "qbinom --n 24 --m 12 --at 2048 --q-max 2048 --format text",
        0,
        "97e3a8c2e11c03518de3ef9295f8c9aca8ad8014d769fb03bc0eee045961f31f",
    ),
    (
        "scan --n 8 --m 3 --q-max 20000 --format text",
        0,
        "4e11b301e44161b2338ed319547c3a74a6571c57b3004c748d5c37d2bf11defc",
    ),
    (
        "verify --q 2 --n 6 --m 3 --brute-bound 2000",
        0,
        "f0fe7b3210f7bd1a9dc4b6e1ded5c279483d6231b5a713b93c0f000495393f07",
    ),
    (
        "verify --q 4 --n 4 --m 2",
        0,
        "d42eb4cc5932d9aedb52d07a434032903e902906b409afd26370f520f051979c",
    ),
    (
        "verify --q 5 --n 4 --m 2 --format text",
        0,
        "66a5af6b3196878875085ece574ad08f03f425b8250732d4a85bbe87b206bdb6",
    ),
    (
        "verify --q 3 --n 5 --m 2 --format text",
        0,
        "865bad85612f92a9a0628bfb2bc776f004da383c0336be53c3ab8defa091b981",
    ),
    (
        "build --q 4 --n 5 --m 2 --max-vertices 6000",
        0,
        "79845282521e2322204cdd31085db51b4a958bd8ced72cd50f2d17f625ae2749",
    ),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_matches_the_pinned_digest(capsys, command, code, digest):
    argv = [FIXTURE if a == "FIXTURE" else a for a in command.split()]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, code, digest",
    [g for g in GOLDEN if g[0].startswith("verify")],
    ids=[g[0] for g in GOLDEN if g[0].startswith("verify")],
)
def test_verify_digest_holds_with_a_broken_generator(capsys, monkeypatch, command, code, digest):
    # x.A with row 0 of A equal to row 1 is singular: the certificate leaves
    # it out and the real generators still decide the orbits
    rows = graph_module._generator_rows

    def with_singular(spec, n):
        singular = [[int(i == j) for j in range(n)] for i in range(n)]
        singular[0] = singular[1][:]
        return rows(spec, n) + [singular]

    monkeypatch.setattr(graph_module, "_generator_rows", with_singular)
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _no_colouring(*args, **kwargs):
    return None


def _no_orbit_colouring(G, node_budget):
    return None, 0, 0


# (exit, (n, m, q), core_test keywords, coreness names to patch, sha256 of the JSON report)
CORE_TEST_EXITS = [
    (
        "complete graph",
        (4, 1, 2),
        {},
        {},
        "225be2833a69912abbf1e274988cfcd0af6d29eace4bb23a20b9bd2b1c59045d",
    ),
    (
        "non-integral h",
        (5, 2, 2),
        {},
        {},
        "4908b720e63a6f0174f4777c8008fdb86c98c52fc38c7ac2de0ee16d7f8f00f4",
    ),
    (
        "non-integral lambda_i",
        (6, 3, 2),
        {},
        {},
        "c5227055b1ce2160cccfbe4926ee24ab156da6db55e1012c707b065714ad09fa",
    ),
    (
        "past the search bound",
        (7, 3, 2),
        {},
        {},
        "73f44a9e90d9a073ffc0569e78d775d1dacaa05274f685b0aa7c6adc0d10cecb",
    ),
    (
        "omega-colouring found, q = 2",
        (4, 2, 2),
        {},
        {},
        "41f314a2aadc64ab65488dedad1b65e74d55662148377a7abc8c605841188cfe",
    ),
    (
        "omega-colouring found, q = 3",
        (4, 2, 3),
        {},
        {},
        "a457870d7a8943a881411e3b4a56f10a0da05382c8d4e0491d3a01d8dafa942f",
    ),
    (
        "both budgets out",
        (4, 2, 2),
        {"node_budget": 1},
        {},
        "e6743d349d915c022ce68477309dbf0b91d917716d0052e53d61938ec537b947",
    ),
    (
        "no omega-colouring exists",
        (4, 2, 2),
        {},
        {"orbit_colouring": _no_orbit_colouring, "find_colouring": _no_colouring},
        "14b2ea9bfe9b2be2f5e11706a908091c0875f1b250d029bf785c91829e113156",
    ),
]


@pytest.mark.parametrize(
    "exit_, args, kwargs, patches, digest", CORE_TEST_EXITS, ids=[e[0] for e in CORE_TEST_EXITS]
)
def test_core_test_exit_matches_the_pinned_digest(
    monkeypatch, exit_, args, kwargs, patches, digest
):
    for name, replacement in patches.items():
        monkeypatch.setattr(coreness, name, replacement)
    rep = coreness.core_test(*args, **kwargs)
    data = to_json(coreness_report_dict(rep))
    assert hashlib.sha256(data.encode()).hexdigest() == digest
