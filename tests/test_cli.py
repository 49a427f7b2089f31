import json
import subprocess
import sys

import pytest

from annkh.burau import bigelow_kernel_word, burau_matrix
from annkh.cli import run
from annkh.cube import build_complex
from annkh.diagram import closure_diagram
from annkh.words import parse_word

ENVELOPE_KEYS = {"command", "input", "dims", "total", "verdict", "payload", "stats", "time_ms"}


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_skh_trivial_b2(capsys):
    assert run(["skh", "", "--strands", "2"]) == 0
    out = capsys.readouterr().out
    assert "q^-2*a^-2 + 2 + q^2*a^2" in out
    assert "total dimension: 4" in out


def test_skh_json_envelope(capsys):
    code, env = run_json(capsys, ["skh", "1", "--json"])
    assert code == 0
    assert set(env) == ENVELOPE_KEYS
    assert env["command"] == "skh"
    assert env["dims"] == [[0, -1, -2, 1], [0, 1, 0, 1], [0, 3, 2, 1], [1, 3, 0, 1]]
    assert env["total"] == 4
    assert env["payload"]["poincare"] == "q^-1*a^-2 + q + q^3*a^2 + t*q^3"
    assert env["stats"]["vertices"] == 2
    assert env["stats"]["k_increase_components"] == 0


WORD_INPUT = {"word", "strands"}


ENVELOPE_CASES = [
    (["skh", "1"], WORD_INPUT),
    (["kh", "1"], WORD_INPUT),
    (["equal", "1", "1"], {"word1", "word2", "strands"}),
    (["trivial", "1 -1"], WORD_INPUT),
    (["plam", "1"], WORD_INPUT),
    (["burau", "1"], WORD_INPUT),
    (["flype", "--u", "1", "--v", "1", "--w", "1", "--sign", "+"], {"u", "v", "w", "sign"}),
    (["resolve", "1", "0"], WORD_INPUT | {"vertex"}),
]


@pytest.mark.parametrize("argv, input_keys", ENVELOPE_CASES, ids=[a[0] for a, _ in ENVELOPE_CASES])
def test_every_subcommand_envelope(capsys, argv, input_keys):
    code, env = run_json(capsys, argv + ["--json"])
    assert code == 0
    assert set(env) == ENVELOPE_KEYS
    assert env["command"] == argv[0]
    assert set(env["input"]) == input_keys
    assert run([argv[0], "--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["skh", "1 1 1", "--max-crossings", "2"], ["resolve", "1", "7"]], ids=["limit", "vertex"]
)
def test_json_error_goes_to_stderr_only(capsys, argv):
    assert run(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_kh_json(capsys):
    code, env = run_json(capsys, ["kh", "1 1 1", "--json"])
    assert code == 0
    assert env["dims"] == [[0, 1, 1], [0, 3, 1], [2, 5, 1], [2, 7, 1], [3, 7, 1], [3, 9, 1]]
    assert env["total"] == 6


def test_json_deterministic_modulo_time(capsys):
    _, env1 = run_json(capsys, ["skh", "1 -2", "--json"])
    _, env2 = run_json(capsys, ["skh", "1 -2", "--json"])
    env1.pop("time_ms")
    env2.pop("time_ms")
    assert env1 == env2


def test_equal_agree_exit_zero(capsys):
    assert run(["equal", "1 2 1", "2 1 2", "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "garside: equal" in out
    assert "skh: equal" in out
    assert "AGREE" in out


def test_equal_unequal_exit_two(capsys):
    assert run(["equal", "1", "1 1", "--method", "both"]) == 2
    out = capsys.readouterr().out
    assert "AGREE" in out
    assert run(["equal", "1 2", "2 1", "--method", "skh"]) == 2
    assert "unequal-by-permutation" in capsys.readouterr().out


def test_equal_widens_to_the_larger_strand_count(capsys):
    code, env = run_json(capsys, ["equal", "1", "1 2 -2", "--json"])
    assert code == 0
    assert env["input"] == {"word1": "1", "word2": "1 2 -2", "strands": 3}
    assert env["verdict"] == "equal"
    assert env["payload"] == {"garside": "equal", "skh": "equal", "agree": True}


def test_trivial_exit_codes(capsys):
    assert run(["trivial", "1 -1"]) == 0
    capsys.readouterr()
    assert run(["trivial", "1 1"]) == 2
    assert "unequal-by-homology" in capsys.readouterr().out


def test_plam_output(capsys):
    assert run(["plam", "--", "-1"]) == 0
    out = capsys.readouterr().out
    assert "psi = 0 at (0, -3)" in out
    assert "certificate: none" in out
    assert run(["plam", "", "--strands", "2"]) == 0
    out = capsys.readouterr().out
    assert "certificate: trivial braid" in out


def test_burau_matrix_output(capsys):
    assert run(["burau", "1", "--charpoly"]) == 0
    out = capsys.readouterr().out
    assert "1 - T" in out
    assert "char poly: L^2 - L + L*T - T" in out


def test_burau_scope_note_for_kernel_word(capsys):
    word = bigelow_kernel_word().as_text()
    code, env = run_json(capsys, ["burau", "--json", "--", word])
    assert code == 0
    assert env["verdict"] == "identity"
    assert "out of range" in env["payload"]["scope_note"]


def test_flype_apply_and_check(capsys):
    assert run(["flype", "--u", "3", "--v", "2", "--w", "-1", "--sign", "+"]) == 0
    out = capsys.readouterr().out
    assert "first:  1 1 1 2 2 -1 2" in out
    assert "second: 1 1 1 2 -1 2 2" in out
    assert "[Tab. 2, MR2468377]" in out
    assert run(["flype", "--u", "1", "--v", "-1", "--w", "2", "--sign", "-", "--check"]) == 0
    assert "skh equal: yes" in capsys.readouterr().out


def test_resolve_dump(capsys):
    assert run(["resolve", "1 1", "3"]) == 0
    out = capsys.readouterr().out
    assert "circles: 2" in out
    assert "essential: 0" in out
    assert "c1.nw" in out


def test_crossing_limit_exit_one(capsys):
    assert run(["skh", "1^21"]) == 1
    err = capsys.readouterr().err
    assert "2^21" in err
    assert run(["skh", "1^21", "--max-crossings", "3"]) == 1


def test_crossing_limit_message_on_long_words(capsys):
    # 2^20000 has 6,021 decimal digits, past Python's int-to-str limit
    for command in ("skh", "plam"):
        assert run([command, "1^20000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "20000 crossings" in lines[0]


def test_long_digit_tokens_are_refused_by_the_grammar(capsys):
    # int() refuses more than 4300 digits; the parser must refuse them first
    nines = "9" * 5000
    for word, message in ((f"1^{nines}", "letters"), (nines, "bad braid letter token")):
        assert run(["skh", word]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert message in lines[0] and "4300" not in lines[0]


def test_crossing_limit_follows_the_typed_word(capsys):
    # 22 letters that cancel to the empty word are still over the limit of 20
    word = " ".join(["1 -1"] * 11)
    for command in ("skh", "kh", "plam", "trivial"):
        assert run([command, word]) == 1
        assert "22 crossings" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["skh", "kh"])
def test_stats_describe_the_typed_word(capsys, command):
    # the cube is built from the reduced conjugate "1 2 1"; stats are the typed word's
    text = "2 1 -2 2 1 -1 2 1 -2"
    typed = build_complex(closure_diagram(parse_word(text)))
    code, env = run_json(capsys, [command, text, "--json"])
    assert code == 0
    assert env["stats"]["generators"] == typed.total_generators
    assert env["stats"]["vertices"] == typed.num_vertices == 2**9


def test_bad_input_exit_one(capsys):
    assert run(["skh", "zzz"]) == 1
    capsys.readouterr()
    assert run(["nope"]) == 1
    capsys.readouterr()
    assert run(["resolve", "1", "7"]) == 1
    # inputs refused before they are built: too many letters, strands or rows
    for argv in (
        ["flype", "--u", "200000", "--v", "1", "--w", "1", "--sign", "+"],
        ["skh", "999999999999999999"],
        ["skh", "--strands", "1000000000", "1"],
        ["equal", "--method", "garside", "--strands", "1000000000", "1", "1"],
        ["burau", "--strands", "100000", "1"],
        ["burau", "--strands", "40", "1"],
    ):
        capsys.readouterr()
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv


def test_burau_refuses_a_large_matrix_before_formatting_it(capsys, monkeypatch):
    def grid(cells):
        raise RuntimeError("the matrix grid was formatted")

    monkeypatch.setattr("annkh.cli._matrix_grid", grid)
    assert run(["burau", "--strands", "21", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: determinant of a 21x21 matrix is refused" in captured.err


def test_burau_refuses_a_wide_word_before_building_its_matrix(capsys, monkeypatch):
    calls = []

    def counting_burau_matrix(w):
        calls.append(w)
        return burau_matrix(w)

    monkeypatch.setattr("annkh.cli.burau_matrix", counting_burau_matrix)
    assert run(["burau", "--strands", "21", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: determinant of a 21x21 matrix is refused" in captured.err
    assert calls == []
    assert run(["burau", "--strands", "3", "1"]) == 0
    assert len(calls) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "annkh.cli", "skh", "", "--strands", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total dimension: 8" in proc.stdout
