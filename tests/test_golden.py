"""Pinned stdout digests: refactors must leave these reports byte-identical."""

import hashlib

import pytest

from grassmann_lab.cli import main
from grassmann_lab.fixture import default_fixture_path

FIXTURE = str(default_fixture_path())

# (command, exit code, sha256 of stdout); the word FIXTURE stands for the shipped fixture
GOLDEN = [
    (
        "coreness --q 2 --n 4 --m 2 --fixture FIXTURE",
        0,
        "e186f8e53eeee68960f0b38180f937c8895106728b9111e1f2789457c99200be",
    ),
    (
        "coreness --q 3 --n 4 --m 2",
        0,
        "b4777cb541d4c6b20c2c8417cde127b9059ea82ad31888c01b979613e9420b15",
    ),
    (
        "coreness --q 2 --n 5 --m 2",
        0,
        "cbd8c971984b4a6040b787c2b7effef4d85f20b8c2ef1c860c60095e18aaf25a",
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
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_matches_the_pinned_digest(capsys, command, code, digest):
    argv = [FIXTURE if a == "FIXTURE" else a for a in command.split()]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
