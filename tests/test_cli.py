import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracles
import pytest

from grassmann_lab import cli, coreness, graph, make_field, qpoly, subspaces
from grassmann_lab.cli import main
from grassmann_lab.config import (
    MAX_FIELD_SIZE,
    MAX_QBINOM_DEGREE,
    MAX_QBINOM_WORK,
    MAX_SCAN_WORK,
    BoundExceeded,
    check_decimal_digits,
)
from grassmann_lab.fixture import default_fixture_path
from grassmann_lab.qpoly import scan_core_threshold
from grassmann_lab.report import graph_from_json_dict, graph_to_json, scan_report_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_json(capsys, j242):
    code, out, _ = run(capsys, "build", "--q", "2", "--n", "4", "--m", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["vertices"] == 35
    assert len(data["vertices"]) == 35
    assert data["vertices"][0]["matrix"] == ["1000", "0100"]
    assert len(data["edges"]) == 35 * 18 // 2
    # round-trip: reloading gives identical adjacency bitsets
    G = graph_from_json_dict(data)
    assert G.adjacency == j242.adjacency
    assert json.loads(graph_to_json(G)) == data


def test_build_dot_triangle(capsys):
    code, out, _ = run(capsys, "build", "--q", "2", "--n", "2", "--m", "1", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 3  # K_3
    assert 'v0 [label="v0"' in out


def test_build_text(capsys):
    code, out, _ = run(capsys, "build", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    assert "35 vertices" in out


def test_a_text_build_builds_no_span_table(capsys, monkeypatch):
    # the text lists the basis rows and the closed-form degree only
    def refuse(*args, **kwargs):
        raise AssertionError("a text build made span table codes")

    monkeypatch.setattr(subspaces, "_class_codes", refuse)
    code, out, err = run(capsys, "build", "--q", "3", "--n", "5", "--m", "2", "--format", "text")
    assert (code, err) == (0, "")
    assert out.startswith("J_3(5,2): 1210 vertices, 94380 edges, degree 156\n  v0: 10000 01000\n")
    assert out.count("\n") == 1211


def test_build_too_large_exits_2(capsys):
    code, _, err = run(capsys, "build", "--q", "2", "--n", "10", "--m", "5")
    assert code == 2
    assert "enumeration too large" in err


def test_invalid_q_exits_3(capsys):
    code, _, err = run(capsys, "build", "--q", "6", "--n", "4", "--m", "2")
    assert code == 3
    assert "prime power" in err


def test_bad_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--q", "2"])
    assert exc.value.code == 3


def test_verify_j242(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["cliques"]["total_maximal_cliques"] == 30
    assert data["lemmas"]["dual"]["applicable"] is True
    assert data["lemmas"]["dual"]["ok"] is True


def test_verify_j252_skips_dual(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["cliques"]["stars"] == 31 and data["cliques"]["tops"] == 155
    assert data["lemmas"]["dual"] == {"applicable": False, "note": "requires n = 2m"}


def test_verify_builds_each_catalog_once(capsys, monkeypatch):
    calls = []
    for name in ("star_catalog", "top_catalog"):
        build = getattr(graph, name)
        monkeypatch.setattr(
            graph, name, lambda G, name=name, build=build: calls.append(name) or build(G)
        )
    code, _, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    assert sorted(calls) == ["star_catalog", "top_catalog"]


def test_build_bounds_the_span_table_before_enumerating(capsys):
    # J_16(4,3) has 4,369 vertices, under the default vertex bound, but its
    # span table holds 4,369 * 16^3 codes; it exits before enumerating
    t0 = time.perf_counter()
    code, out, err = run(capsys, "build", "--q", "16", "--n", "4", "--m", "3")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == "error: span table too large: J_16(4,3) has 17895424 codes > 1000000\n"


def test_verify_bounds_the_catalogs_before_enumerating(capsys):
    # J_2(10,1) has 1023 vertices but 174,252 star and top centres
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "10", "--m", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_q3(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "4", "--m", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_coreness_with_fixture(capsys):
    code, out, _ = run(
        capsys,
        "coreness", "--q", "2", "--n", "4", "--m", "2",
        "--fixture", str(default_fixture_path()),
    )
    assert code == 0
    data = json.loads(out)
    core = data["coreness"]
    assert core["verdict"] == "not-core"
    assert core["omega"] == 7 and core["alpha"] == 5 and core["chi"] == 7
    assert core["witness"]["classification"] == "colouring"
    assert data["fixture"]["ok"] is True
    assert data["fixture"]["chi_upper"] == 7


def test_coreness_with_fixture_builds_the_graph_once(capsys, monkeypatch):
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return graph.build_graph(*args, **kwargs)

    monkeypatch.setattr(cli, "build_graph", spy)
    monkeypatch.setattr(coreness, "build_graph", spy)
    code, _, _ = run(
        capsys,
        "coreness", "--q", "2", "--n", "4", "--m", "2",
        "--fixture", str(default_fixture_path()),
    )
    assert code == 0
    assert len(built) == 1


def test_tampered_fixture_exits_1(capsys, tmp_path):
    text = default_fixture_path().read_text()
    # swap A1 into L2: A1 and A2 are adjacent, breaking independence
    tampered = text.replace("L1: A1", "L1:").replace("L2: A2", "L2: A2 A1")
    path = tmp_path / "tampered.txt"
    path.write_text(tampered)
    code, out, _ = run(
        capsys, "coreness", "--q", "2", "--n", "4", "--m", "2", "--fixture", str(path)
    )
    assert code == 1
    data = json.loads(out)
    assert data["fixture"]["ok"] is False
    assert data["fixture"]["violations"] == ["clique vertices repeat a colour"]
    code, out, _ = run(
        capsys,
        "coreness", "--q", "2", "--n", "4", "--m", "2", "--fixture", str(path), "--format", "text",
    )
    assert code == 1
    assert out.startswith("J_2(4,2): verdict not-core; ")
    assert out.endswith("; fixture FAILED: clique vertices repeat a colour\n")


def test_coreness_text_names_the_fixture_outcome(capsys):
    argv = ["coreness", "--q", "2", "--n", "4", "--m", "2"]
    code, plain, _ = run(capsys, *argv, "--format", "text")
    assert code == 0
    code, out, _ = run(capsys, *argv, "--fixture", str(default_fixture_path()), "--format", "text")
    assert code == 0
    assert out == plain[:-1] + "; fixture ok, 7 classes\n"


_A35 = "A35\n1000\n0011\n"
_UNREADABLE = "error: cannot read fixture: "


# Each fixture input ends in one of the three ways: exit 0, exit 1 with the
# reason its certificate fails the witness check, exit 3 with an error line
# for a file that is no fixture.  said is the start of that reason or line.
FIXTURE_INPUTS = [
    (lambda t: t.replace(_A35, "A35\n"), 3, "error: fixture matrix A35 is no matrix"),
    (lambda t: t.replace(_A35, "A35\n100z\n0011\n"), 3, "error: fixture matrix A35"),
    (lambda t: t.replace(_A35, "A35\n10-0\n0011\n"), 3, "error: invalid literal"),
    (lambda t: t.replace(_A35, "A35\n1000\n001\n"), 3, "error: fixture matrix A35"),
    (lambda t: b"A1\n\xff\xfe\n", 3, _UNREADABLE + "'utf-8' codec can't decode"),
    ("directory", 3, _UNREADABLE),
    ("missing", 3, _UNREADABLE),
    (lambda t: t.replace("L1: A1 ", "L1: A99 A1 "), 1, "set L1 names A99"),
    (lambda t: t.replace(" A17\n", "\n"), 1, "A17 is in no set"),
    (lambda t: t.replace(_A35, _A35 + "\nA36\n1000\n0011\n"), 1, "A36 is in no set"),
    (lambda t: t.replace("L1: A1", "L1:").replace("L2: A2", "L2: A2 A1"), 1, "clique"),
    (lambda t: t.replace("L1: A1", "L1: A2 A1"), 1, "vertex 8 is coloured twice"),
    (lambda t: t.replace(_A35, "A35\n1000\n"), 1, "A35 spans no vertex of J_2(4,2)"),
    (lambda t: t.replace(_A35, "A35\n10000\n00110\n"), 1, "A35 spans no vertex"),
    (lambda t: t.replace(_A35, "A35\n1000\n0011\n1011\n"), 0, None),
    (lambda t: t + "L8:\n", 0, None),
    (lambda t: t.replace("L7: A11 A16 A26", "L7: A11 A16\nL8: A26"), 1, "clique size 7"),
]
FIXTURE_IDS = [
    "empty block", "entry outside GF(2)", "bad digit", "ragged rows", "not UTF-8",
    "directory", "missing file", "unknown label", "label in no set",
    "A35's vertex again, in no set", "A1 moved into L2", "label in two sets",
    "a 1-space", "5 columns", "3 rows spanning a 2-space", "an empty set",
    "8 proper classes",
]


def _fixture_file(tmp_path, edit) -> Path:
    """The path of a fixture input of FIXTURE_INPUTS, written under tmp_path."""
    path = tmp_path / "fixture.txt"
    if edit == "directory":
        return tmp_path
    if edit != "missing":
        text = default_fixture_path().read_text()
        data = edit(text)
        assert data != text
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return path


@pytest.mark.parametrize("edit, code, said", FIXTURE_INPUTS, ids=FIXTURE_IDS)
def test_fixture_exit_codes(capsys, tmp_path, edit, code, said):
    path = _fixture_file(tmp_path, edit)
    got, out, err = run(
        capsys, "coreness", "--q", "2", "--n", "4", "--m", "2", "--fixture", str(path)
    )
    assert got == code
    if code == 3:
        assert out == "" and err.startswith(said) and err.count("\n") == 1
        return
    assert err == ""
    fixture = json.loads(out)["fixture"]
    assert fixture["ok"] is (code == 0)
    if said is None:
        assert fixture["violations"] == [] and fixture["chi_upper"] == 7
    else:
        assert fixture["violations"][0].startswith(said)


@pytest.mark.parametrize(
    "edit, said",
    [(edit, said) for edit, code, said in FIXTURE_INPUTS if code == 3],
    ids=[i for (_, code, _), i in zip(FIXTURE_INPUTS, FIXTURE_IDS) if code == 3],
)
def test_a_file_that_is_no_fixture_exits_3_before_the_search(
    capsys, monkeypatch, tmp_path, edit, said
):
    # every exit-3 input fails as the file is read: its error line is the
    # same with a search that refuses to run
    path = _fixture_file(tmp_path, edit)
    argv = ["coreness", "--q", "2", "--n", "4", "--m", "2", "--fixture", str(path)]
    _, _, plain = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("the coreness search ran before the fixture was read")

    monkeypatch.setattr(cli, "core_test", refuse)
    got, out, err = run(capsys, *argv)
    assert (got, out, err) == (3, "", plain) and err.startswith(said)


def test_missing_fixture_exits_3_before_the_search(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the coreness search ran before the fixture was read")

    monkeypatch.setattr(cli, "core_test", refuse)
    missing = tmp_path / "missing.txt"
    code, out, err = run(
        capsys, "coreness", "--q", "4", "--n", "4", "--m", "2", "--fixture", str(missing)
    )
    assert code == 3
    assert out == ""
    assert err == f"error: cannot read fixture: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize(
    "target, exc, command, code",
    [
        ("h_report", ArithmeticError, "qbinom --n 8 --m 3", 1),
        ("core_test", AssertionError, "coreness --q 2 --n 4 --m 2", 1),
        ("h_report", ZeroDivisionError, "qbinom --n 8 --m 3", 3),
        ("scan_core_threshold", KeyError, "scan --n 8 --m 3 --q-max 16", 1),
        ("build_graph", TypeError, "build --q 2 --n 4 --m 2", 1),
    ],
)
def test_failed_self_checks_print_one_error_line(
    capsys, monkeypatch, target, exc, command, code
):
    # exit 1 for a failed check, but a ZeroDivisionError still means invalid input
    def broken(*args, **kwargs):
        raise exc("self-check tripped")

    monkeypatch.setattr(cli, target, broken)
    assert main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if code == 1:
        assert captured.err == f"error: {exc.__name__}: {exc('self-check tripped')}\n"


def test_running_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch):
    # memory is a resource bound like the configured ones, not a failed check
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_graph", exhausted)
    code, out, err = run(capsys, *"build --q 2 --n 9 --m 2 --max-vertices 50000".split())
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def test_a_dump_that_runs_out_of_memory_writes_nothing(capsys, monkeypatch):
    # the star grouping, the largest thing a dump builds, is made after
    # build_graph, once per dump and before the first chunk is written
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(graph, "_hyperplane_groups", exhausted)
    code, out, err = run(capsys, *"build --q 2 --n 4 --m 2 --format json".split())
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


# (command, bytes read before the reader closes stdout): the first two write
# megabytes, far past the pipe's buffer; the third's few kB wait in stdout's
# buffer, so its write fails only when that buffer is flushed
EARLY_READERS = [
    ("build --q 2 --n 6 --m 2 --format json", 10),
    ("scan --n 4 --m 2 --q-max 100000", 10),
    ("coreness --q 2 --n 4 --m 2", 0),
]


@pytest.mark.parametrize("command, size", EARLY_READERS, ids=[c for c, _ in EARLY_READERS])
def test_a_reader_that_stops_early_ends_the_command_quietly(command, size):
    # a fresh interpreter with a buffered stdout, so its exit flush is tested too
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "grassmann_lab.cli", *command.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(size) == b'{\n  "param'[:size]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err.count("\n") <= 1 and "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupts_and_exits_propagate(monkeypatch, exc):
    def interrupted(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(cli, "scan_core_threshold", interrupted)
    with pytest.raises(exc):
        main("scan --n 8 --m 3 --q-max 16".split())


def test_the_cached_parser_keeps_no_state_between_calls(capsys):
    valid = "qbinom --n 8 --m 3 --at 4".split()
    cli._build_parser.cache_clear()
    first = run(capsys, *valid)
    assert first[0] == 0
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exit_info:
        main(["qbinom", "--n", "8", "--m", "x"])
    assert exit_info.value.code == 3
    capsys.readouterr()
    assert run(capsys, *valid) == first
    code, out, _ = run(capsys, *"qbinom --n 8 --m 3 --q-max 16".split())
    assert code == 0 and "scan" in json.loads(out)["qbinom"]
    code, out, _ = run(capsys, *"qbinom --n 8 --m 3".split())
    assert code == 0 and "scan" not in json.loads(out)["qbinom"]
    assert cli._build_parser() is parser


def test_commands_are_looked_up_when_called(capsys, monkeypatch):
    seen = []
    cli._build_parser()  # cached before the command is replaced
    monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args.q_max) or 0)
    assert main("scan --n 8 --m 3 --q-max 16".split()) == 0
    assert seen == [16] and capsys.readouterr().out == ""


def test_coreness_core_case(capsys):
    code, out, _ = run(capsys, "coreness", "--q", "2", "--n", "5", "--m", "2")
    assert code == 0
    core = json.loads(out)["coreness"]
    assert core["verdict"] == "core"
    assert core["integrality"]["value"] == "31/3"


def test_coreness_undetermined(capsys):
    code, out, _ = run(capsys, "coreness", "--q", "2", "--n", "7", "--m", "3")
    assert code == 0
    core = json.loads(out)["coreness"]
    assert core["verdict"] == "undetermined"
    assert core["integrality"] == {"is_integer": True, "value": 381}


def test_coreness_witness_maps_every_edge_of_the_build_dump_to_an_edge(capsys):
    # J_2(6,2)'s witness comes from the orbit stage and J_3(4,2)'s from DSATUR,
    # which checks none of its own colourings
    for q, n, m, nv, omega, degree, orbit in (
        (2, 6, 2, 651, 31, 2 * 3 * 15, True),  # degree q [m]_q [n-m]_q
        (3, 4, 2, 130, 13, 3 * 4 * 4, False),
    ):
        shape = ("--q", str(q), "--n", str(n), "--m", str(m))
        code, out, _ = run(capsys, "coreness", *shape)
        assert code == 0
        rep = json.loads(out)["coreness"]
        assert any(e.startswith("orbit search found") for e in rep["evidence"]) == orbit
        code, out, _ = run(capsys, "build", *shape, "--format", "json")
        assert code == 0
        # masks spanned from the basis rows of the dump, adjacency by pairwise popcounts
        dump = json.loads(out)
        spec = make_field(dump["params"]["p"], dump["params"]["e"])
        masks = [
            oracles.mask_by_enumeration(spec, oracles.subspace_from_digits(spec, v["matrix"]))
            for v in dump["vertices"]
        ]
        adj = oracles.pairwise_adjacency(masks, q, m)
        assert {row.bit_count() for row in adj} == {degree}
        f = rep["witness"]["map"]
        assert len(f) == nv and len(set(f)) == omega and not rep["witness"]["injective"]
        assert oracles.first_broken_edge(adj, f) is None
        j = (adj[0] & -adj[0]).bit_length() - 1  # vertex 0's lowest neighbour
        collapsed = f[:]
        collapsed[j] = collapsed[0]
        assert oracles.first_broken_edge(adj, collapsed) == (0, j)


def test_a_witness_that_fails_its_check_exits_1(capsys, monkeypatch):
    # a balanced but improper colouring: the witness check fails, which is a
    # failed self-check, not invalid input
    def improper(G, node_budget):
        return [v % 7 for v in range(G.num_vertices)], 7, 0

    monkeypatch.setattr(coreness, "orbit_colouring", improper)
    code, out, err = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: AssertionError: the 7-colouring witness fails its ")
    assert err.count("\n") == 1


def test_qbinom(capsys):
    code, out, _ = run(capsys, "qbinom", "--n", "4", "--m", "2")
    assert code == 0
    data = json.loads(out)["qbinom"]
    assert data["exponents"] == {"3": 1, "4": 1}
    assert data["polynomial"]["coeffs"] == [1, 1, 2, 1, 1]
    assert data["h"]["applicable"] is False
    assert data["h"]["f"]["text"] == "q^2 + 1"


def test_qbinom_at_value(capsys):
    code, out, _ = run(capsys, "qbinom", "--n", "5", "--m", "2", "--at", "2")
    assert code == 0
    data = json.loads(out)["qbinom"]
    assert data["value_at"] == {"q": 2, "value": 155}
    assert data["h"]["value_at"] == {"q": 2, "value": "31/3"}


def test_qbinom_with_scan(capsys):
    code, out, _ = run(capsys, "qbinom", "--n", "8", "--m", "3", "--q-max", "16")
    assert code == 0
    data = json.loads(out)["qbinom"]
    assert data["h"]["applicable"] is True
    assert data["h"]["exponents"]["3"] == -1
    assert all(not e["is_integer"] for e in data["scan"]["entries"])


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--n", "5", "--m", "2", "--q-max", "64")
    assert code == 0
    data = json.loads(out)["qbinom"]["scan"]
    assert data["largest_integer_q"] is None
    assert len(data["entries"]) == 27


DIGIT_BOUND_COMMANDS = [
    "qbinom --n 80 --m 40 --at 2048",
    "qbinom --n 80 --m 40 --q-max 2048",
    "qbinom --n 300 --m 4 --at 1048576",
    "scan --n 200 --m 100 --q-max 4",
    "build --q 2 --n 300 --m 150",
    "verify --q 2 --n 300 --m 150",
    "coreness --q 2 --n 300 --m 150",
]

# 0 means no limit; interpreters before 3.10.7 have none
STR_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(
    not 0 < STR_DIGIT_LIMIT <= 4300,
    reason="the commands print integers just past the default 4300-digit int-to-str limit",
)
@pytest.mark.parametrize("command", DIGIT_BOUND_COMMANDS)
def test_integers_past_the_str_digit_limit_exit_2(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {STR_DIGIT_LIMIT} decimal digits" in err
    assert "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == STR_DIGIT_LIMIT


# (command, the value its error names): a lower bound from the shape alone puts each past
# the limit, so none is evaluated
SHAPE_BOUND_COMMANDS = [
    ("build --q 2 --n 2000 --m 1000", "the vertex count of J_2(2000,1000)"),
    ("coreness --q 2 --n 2000 --m 1000", "|V|/omega for J_2(2000,1000)"),
    ("coreness --q 1048573 --n 430 --m 215", "|V|/omega for J_1048573(430,215)"),
    ("qbinom --n 430 --m 216 --at 1048573", "[430,216]_q at q = 1048573"),
    ("build --q 2 --n 5000 --m 2500", "the vertex count of J_2(5000,2500)"),
    ("verify --q 2 --n 5000 --m 2500", "the star and top centre count of J_2(5000,2500)"),
    ("coreness --q 2 --n 5000 --m 2500", "|V|/omega for J_2(5000,2500)"),
    (
        "verify --q 1048573 --n 1000000 --m 1",
        "the star and top centre count of J_1048573(1000000,1)",
    ),
    ("coreness --q 1048573 --n 1000000 --m 1", "the vertex count of J_1048573(1000000,1)"),
]


@pytest.mark.skipif(
    not 0 < STR_DIGIT_LIMIT <= 4300,
    reason="the shape bounds pass the default 4300-digit int-to-str limit",
)
@pytest.mark.parametrize(
    "command, what", SHAPE_BOUND_COMMANDS, ids=[c for c, _ in SHAPE_BOUND_COMMANDS]
)
def test_shapes_past_the_str_digit_limit_exit_2_before_evaluating(
    capsys, monkeypatch, command, what
):
    def refuse(*args):
        raise AssertionError("a value was evaluated although its shape is past the digit limit")

    for module in (cli, coreness, graph, subspaces):
        monkeypatch.setattr(module, "gaussian_binomial_int", refuse)
    for module in (cli, coreness):
        monkeypatch.setattr(module, "h_integrality", refuse)
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err == (
        f"error: {what} has more than {STR_DIGIT_LIMIT} decimal digits, "
        "the interpreter's limit for int-to-str conversion\n"
    )


@pytest.mark.skipif(not STR_DIGIT_LIMIT, reason="the interpreter has no int-to-str limit")
def test_the_digit_check_passes_exactly_the_printable_integers():
    largest = 10**STR_DIGIT_LIMIT - 1
    check_decimal_digits(largest, "x")
    check_decimal_digits(-largest, "x")
    for value in (largest + 1, -largest - 1):
        with pytest.raises(BoundExceeded, match=f"more than {STR_DIGIT_LIMIT} decimal digits"):
            check_decimal_digits(value, "x")


@pytest.mark.parametrize(
    "command",
    [
        "coreness --q 2 --n 20000 --m 1 --format text",
        "qbinom --n 3000 --m 1 --at 1048576 --format text",
    ],
)
def test_huge_integers_that_are_never_printed_pass(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and out and err == ""


def test_text_coreness_at_m_equal_one_never_evaluates_the_vertex_count(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("[n,1]_q was evaluated although text output prints no |V|")

    for module in (cli, coreness, graph, qpoly, subspaces):
        monkeypatch.setattr(module, "gaussian_binomial_int", refuse)
    code, out, err = run(capsys, *"coreness --q 1048573 --n 1000000 --m 1 --format text".split())
    assert (code, err) == (0, "")
    assert out == (
        "J_1048573(1000000,1): verdict core; "
        "complete graph: every endomorphism permutes the vertices\n"
    )


@pytest.mark.skipif(
    not 0 < STR_DIGIT_LIMIT <= 4300,
    reason="h at the largest prime power passes the default 4300-digit int-to-str limit",
)
@pytest.mark.parametrize(
    "command",
    [
        "qbinom --n 80 --m 40 --q-max 2048",
        "qbinom --n 80 --m 40 --q-max 2048 --format text",
        "scan --n 200 --m 100 --q-max 4",
        "scan --n 200 --m 100 --q-max 4 --format text",
    ],
)
def test_scans_past_the_str_digit_limit_fail_before_scanning(capsys, monkeypatch, command):
    n, m, q_max = (int(a) for a in command.split()[2:7:2])
    # the message the report check gives once the whole scan has run
    with pytest.raises(BoundExceeded) as exc:
        scan_report_dict(scan_core_threshold(n, m, q_max))
    calls = []

    def counted(*args):
        calls.append(args)
        return scan_core_threshold(*args)

    def refuse(*args):
        raise AssertionError("polynomial built for a scan that cannot be printed")

    monkeypatch.setattr(cli, "scan_core_threshold", counted)
    monkeypatch.setattr(cli, "h_report", refuse)
    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    code, out, err = run(capsys, *command.split())
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")
    assert calls == []


def test_qbinom_checks_at_before_the_scan(capsys):
    for q_max in ("2048", "1", "-3"):
        code, out, err = run(capsys, *"qbinom --n 80 --m 40 --at 6 --q-max".split(), q_max)
        assert (code, out, err) == (3, "", "error: --at must be a prime power, got 6\n")


@pytest.mark.parametrize(
    "command, refused",
    [
        (
            "qbinom --n 8 --m 3 --at 2 --q-max 16 --format text",
            ("gaussian_binomial_int", "scan_core_threshold"),
        ),
        (
            "qbinom --n 24 --m 12 --at 2048 --q-max 2048 --format text",
            ("gaussian_binomial_int", "scan_core_threshold"),
        ),
        ("scan --n 8 --m 3 --q-max 2000 --format text", ("scan_report_dict",)),
    ],
)
def test_text_reports_evaluate_only_what_they_print(capsys, monkeypatch, command, refused):
    expected = run(capsys, *command.split())

    def refuse(*args):
        raise AssertionError("a text report evaluated what it does not print")

    for name in refused:
        monkeypatch.setattr(cli, name, refuse)
    assert run(capsys, *command.split()) == expected
    assert expected[0] == 0


@pytest.mark.parametrize(
    "command, code, error",
    [
        ("qbinom --n 8 --m 3 --at 6 --q-max 16", 3, "--at must be a prime power, got 6"),
        ("qbinom --n 8 --m 3 --at 6 --q-max 1", 3, "--at must be a prime power, got 6"),
        ("qbinom --n 8 --m 3 --q-max 1", 3, "--q-max must be at least 2"),
        pytest.param(
            "qbinom --n 80 --m 40 --q-max 2048",
            2,
            "h(q) for (n=80, m=40) up to q = 2048 has more than",
            marks=pytest.mark.skipif(
                not 0 < STR_DIGIT_LIMIT <= 4300, reason="needs the int-to-str digit limit"
            ),
        ),
    ],
)
def test_text_qbinom_still_checks_at_and_q_max(capsys, command, code, error):
    got, out, err = run(capsys, *command.split(), "--format", "text")
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {error}")


@pytest.mark.parametrize("m", [0, 4, 5])
def test_verify_counts_no_centres_for_m_outside_1_to_n_minus_1(capsys, monkeypatch, m):
    def refuse(*args):
        raise AssertionError("centres counted for an invalid m")

    monkeypatch.setattr(cli, "gaussian_binomial_int", refuse)
    code, out, err = run(capsys, *f"verify --q 2 --n 4 --m {m}".split())
    assert (code, out, err) == (3, "", f"error: need 1 <= m < n, got m={m}, n=4\n")


def _refuse_scanning(monkeypatch):
    def refuse(*args):
        raise AssertionError("scan started above the work cap")

    monkeypatch.setattr(cli, "scan_core_threshold", refuse)
    monkeypatch.setattr(cli, "prime_power_base", refuse)
    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    monkeypatch.setattr(qpoly, "prime_powers_upto", refuse)


@pytest.mark.parametrize(
    "command",
    ["scan --n 5 --m 2 --q-max 3000000", "qbinom --n 8 --m 3 --q-max 1000000 --format text"],
)
def test_scans_past_the_work_cap_exit_2_before_scanning(capsys, monkeypatch, command):
    _refuse_scanning(monkeypatch)
    code, out, err = run(capsys, *command.split())
    n, m, q_max = (int(a) for a in command.split()[2:7:2])
    assert (code, out) == (2, "")
    assert err == (
        f"error: scan too long: m(n-m) * q_max may be at most {MAX_SCAN_WORK}, so q_max at "
        f"most {MAX_SCAN_WORK // (m * (n - m))} for (n={n}, m={m}), got {q_max}\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        f"{cmd} --n {n} --m {m} --q-max {q_max}{fmt}"
        for cmd, n, m in [("scan", 5, 2), ("qbinom", 8, 3)]
        for q_max in (1, 0, -3)
        for fmt in ("", " --format text")
    ],
)
def test_scans_below_the_smallest_prime_power_exit_3_before_scanning(
    capsys, monkeypatch, command
):
    _refuse_scanning(monkeypatch)
    q_max = command.split()[6]
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (3, "")
    assert err == f"error: --q-max must be at least 2, the smallest prime power, got {q_max}\n"


@pytest.mark.parametrize("fmt", ["", " --format text"])
@pytest.mark.parametrize("q_max", [1, 0, -3])
@pytest.mark.parametrize("n, m", [(5, 1), (5, 3), (6, 2), (7, 4)])
def test_qbinom_q_max_below_2_exits_3_on_every_shape(capsys, monkeypatch, n, m, q_max, fmt):
    # (5, 1), (5, 3) and (7, 4) have no h report, (6, 2) has one; all refuse alike
    _refuse_scanning(monkeypatch)
    code, out, err = run(capsys, *f"qbinom --n {n} --m {m} --q-max {q_max}{fmt}".split())
    assert (code, out) == (3, "")
    assert err == f"error: --q-max must be at least 2, the smallest prime power, got {q_max}\n"


@pytest.mark.parametrize("fmt", ["", " --format text"])
@pytest.mark.parametrize("n, m", [(5, 1), (5, 3), (7, 4)])
def test_qbinom_ignores_a_valid_q_max_without_an_h_report(capsys, monkeypatch, n, m, fmt):
    expected = run(capsys, *f"qbinom --n {n} --m {m}{fmt}".split())

    def refuse(*args):
        raise AssertionError("scanned a shape without an h report")

    monkeypatch.setattr(cli, "scan_core_threshold", refuse)
    monkeypatch.setattr(cli, "prime_power_base", refuse)
    assert run(capsys, *f"qbinom --n {n} --m {m} --q-max 100000000{fmt}".split()) == expected
    assert expected[0] == 0


def test_scan_work_cap_boundary(capsys, monkeypatch):
    # m(n-m) * q_max = 6 * 64 = 384 for (5, 2) up to 64
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 384)
    assert run(capsys, *"scan --n 5 --m 2 --q-max 64".split())[0] == 0
    _refuse_scanning(monkeypatch)
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 383)
    code, _, err = run(capsys, *"scan --n 5 --m 2 --q-max 64".split())
    assert code == 2 and "q_max at most 63 for (n=5, m=2), got 64" in err


def test_scan_rejects_shapes_without_h_before_the_work_cap(capsys, monkeypatch):
    _refuse_scanning(monkeypatch)
    code, out, err = run(capsys, *"scan --n 7 --m 4 --q-max 100000000".split())
    assert (code, out, err) == (3, "", "error: need 4 <= 2m <= n\n")


@pytest.mark.parametrize("command", ["build", "verify", "coreness", "qbinom"])
def test_fields_past_the_size_cap_exit_3_before_factoring(capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("q factored above the field size cap")

    monkeypatch.setattr(cli, "prime_power_base", refuse)
    monkeypatch.setattr(coreness, "prime_power_base", refuse)
    q = 100000000000031
    flag = "--at" if command == "qbinom" else "--q"
    code, out, err = run(capsys, command, flag, str(q), "--n", "4", "--m", "2")
    assert (code, out, err) == (3, "", f"error: field too large: q = {q} > {MAX_FIELD_SIZE}\n")


@pytest.mark.parametrize("command", ["build", "verify"])
def test_the_largest_field_reaches_the_graph_field_cap_at_once(capsys, command):
    # finding the degree-20 modulus of GF(2^20) skips the 2^19 candidates divisible by x
    code, out, err = run(capsys, command, "--q", str(MAX_FIELD_SIZE), "--n", "2", "--m", "1")
    assert (code, out) == (2, "")
    assert err == f"error: field too large for graph building: q={MAX_FIELD_SIZE} > 16\n"


def test_qbinom_caps_the_degree_of_the_h_report_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("polynomial built above the cap")

    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    code, out, err = run(capsys, "qbinom", "--n", "400", "--m", "200")
    assert code == 2
    assert out == ""
    assert err == (
        "error: Gaussian binomial too large for the h report: [400,200]_q has degree 40000 "
        f"> {MAX_QBINOM_DEGREE}\n"
    )
    monkeypatch.setattr(cli, "MAX_QBINOM_DEGREE", 14)
    code, _, err = run(capsys, "qbinom", "--n", "8", "--m", "3")
    assert code == 2 and "degree 15 > 14" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_QBINOM_DEGREE", 15)
    assert run(capsys, "qbinom", "--n", "8", "--m", "3")[0] == 0


def test_qbinom_without_an_h_report_is_not_capped(capsys, monkeypatch):
    # degree 9999 > MAX_QBINOM_DEGREE, but m = 1 runs no h report
    assert run(capsys, "qbinom", "--n", "10000", "--m", "1")[0] == 0
    monkeypatch.setattr(cli, "MAX_QBINOM_DEGREE", 0)
    assert run(capsys, "qbinom", "--n", "8", "--m", "5")[0] == 0


def test_qbinom_caps_the_work_of_every_shape_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("Gaussian binomial built above the work cap")

    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    monkeypatch.setattr(cli, "gaussian_binomial_int", refuse)
    # min(301, 300) * 301 * 300 = 27,090,000, and 2m > n runs no h report
    code, out, err = run(capsys, "qbinom", "--n", "601", "--m", "301", "--at", "2")
    assert (code, out) == (2, "")
    assert err == (
        "error: Gaussian binomial too large to build: min(m, n-m) * m(n-m) may be at most "
        f"{MAX_QBINOM_WORK}, got [601,301]_q\n"
    )
    # the --at check keeps its precedence
    code, _, err = run(capsys, "qbinom", "--n", "601", "--m", "301", "--at", "6")
    assert (code, err) == (3, "error: --at must be a prime power, got 6\n")


def test_qbinom_work_cap_boundary(capsys, monkeypatch):
    # min(5, 3) * 5 * 3 = 45 for [8,5]
    monkeypatch.setattr(cli, "MAX_QBINOM_WORK", 45)
    assert run(capsys, *"qbinom --n 8 --m 5".split())[0] == 0
    monkeypatch.setattr(cli, "MAX_QBINOM_WORK", 44)
    code, out, err = run(capsys, *"qbinom --n 8 --m 5".split())
    assert (code, out) == (2, "") and "got [8,5]_q" in err


def test_witness_revalidates_from_json(capsys, j242):
    code, out, _ = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    witness = json.loads(out)["coreness"]["witness"]
    from grassmann_lab import validate_endomorphism

    endo = validate_endomorphism(j242, witness["map"])
    assert len(endo.image()) == witness["image_size"] == 7
    assert endo.is_injective() == witness["injective"] is False


def test_round_trip_q3(j342):
    data = json.loads(graph_to_json(j342))
    G = graph_from_json_dict(data)
    assert G.adjacency == j342.adjacency
    assert G.vertices == j342.vertices


def test_verify_complete_graph(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "3", "--m", "1")
    assert code == 0
    data = json.loads(out)
    # the one maximal clique of a complete graph is the star over the origin
    assert data["cliques"]["total_maximal_cliques"] == 1
    assert data["cliques"]["stars"] == 1
    assert data["ok"] is True


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    _, out2, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    assert out1 == out2
    _, out1, _ = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    _, out2, _ = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    assert out1 == out2


def _exit_contract_inputs():
    """A seeded sample of CLI inputs over edge values of q, n, m, --at and --q-max, in every
    output format, and the shapes at MAX_QBINOM_DEGREE and MAX_SCAN_WORK with one past each."""
    rng = random.Random(33)
    formats = {"build": ("text", "json", "dot"), "qbinom": ("json", "text")}
    graphs = [
        f"{cmd} --q {q} --n {n} --m {m}"
        for cmd in ("build", "verify", "coreness")
        for q in (-1, 0, 1, 2, 3, 4, 6, 9, 16, 17, 27, 32, MAX_FIELD_SIZE + 1)
        for n in range(-1, 9)
        for m in range(-1, 5)
    ]
    polys = []
    for n in (-1, 0, 1, 3, 4, 5, 8, 24, 80):
        for m in (-1, 0, 1, 2, 3, 12, 40):
            for q_max in ("", "1", "2", "64", "2048"):
                for at in ("", "1", "2", "6", "2048", "1048573", str(MAX_FIELD_SIZE + 1)):
                    polys.append(
                        f"qbinom --n {n} --m {m}"
                        + (f" --at {at}" if at else "")
                        + (f" --q-max {q_max}" if q_max else "")
                    )
                if q_max:
                    polys.append(f"scan --n {n} --m {m} --q-max {q_max}")
    # (input, exit code): the degree cap is inclusive, and (400, 200) at its
    # scan cap still prints numerators past the int-to-str limit
    bounds = []
    for n, m, code in ((650, 10, 0), (160, 80, 0), (651, 10, 2)):
        assert m * (n - m) == MAX_QBINOM_DEGREE + 10 * (code == 2)
        bounds.append((f"qbinom --n {n} --m {m}", code))
    for n, m, code in ((24, 12, 0), (400, 200, 2)):
        top = MAX_SCAN_WORK // (m * (n - m))
        bounds += [(f"scan --n {n} --m {m} --q-max {top}", code)]
        bounds += [(f"scan --n {n} --m {m} --q-max {top + 1}", 2)]
    out = []
    sample = rng.sample(graphs, 160) + rng.sample(polys, 100)
    for argv, code in [(argv, None) for argv in sample] + bounds:
        command = argv.split()[0]
        fmt = rng.choice(formats.get(command, ("json", "text")))
        out.append((f"{argv} --format {fmt}", code))
    return out


def test_every_input_of_a_seeded_grid_exits_0_2_or_3(capsys):
    # exit 1 means a failed check: no input may reach it, print a traceback,
    # or write stdout on the way to a bound (2) or an invalid-input (3) exit
    inputs = _exit_contract_inputs()
    assert len(inputs) <= 300
    codes = {}
    for argv, expected in inputs:
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code, err)
        assert expected in (None, code), (argv, code, err)
        assert "Traceback" not in err, argv
        if code:
            assert out == "" and err, argv
        codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 2, 3}, codes
