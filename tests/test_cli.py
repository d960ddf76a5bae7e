"""CLI subcommands: exit codes, JSON payloads, file outputs."""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerprobe.cli import _build_parser, main
from powerprobe.oracle import (LocalPowerOracle, read_instance,
                               transcript_to_jsonl, write_transcript)
from powerprobe.poly_algebra import Poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    data = json.loads(out)
    assert isinstance(data, dict)
    return data


class TestGen:
    def test_writes_instance(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        code, out, err = run(capsys, "gen", "--p", "101", "--e", "5", "--d", "2",
                             "--seed", "7", "--out", str(path))
        assert code == 0
        data = payload(out)
        assert data["p"] == 101 and data["path"] == str(path)
        spec = read_instance(path)
        assert spec.f.is_monic and spec.f.degree == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "gen", "--p", "101", "--e", "5", "--d", "2",
                             "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_e_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "--p", "101", "--e", "6", "--d", "2",
                             "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "must divide" in payload(out)["error"]
        assert "must divide" in err

    def test_redact(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(capsys, "gen", "--p", "101", "--e", "5", "--d", "2",
                         "--seed", "7", "--redact", "--out", str(path))
        assert code == 0
        assert "f" not in json.loads(path.read_text())


class TestIdentity:
    def test_equal_exit_0(self, capsys, tmp_path):
        path = tmp_path / "eq.json"
        run(capsys, "gen", "--p", "101", "--e", "5", "--d", "2", "--seed", "3",
            "--equal-g", "--out", str(path))
        code, out, _ = run(capsys, "identity", "--instance", str(path))
        assert code == 0
        data = payload(out)
        assert data["verdict"] == "indistinguishable_on_window"
        assert data["witness"] is None

    def test_different_exit_1(self, capsys):
        code, out, _ = run(capsys, "identity", "--p", "101", "--e", "5",
                           "--d", "2", "--seed", "9")
        assert code == 1
        data = payload(out)
        assert data["verdict"] == "different"
        assert isinstance(data["witness"], int)
        assert data["query_count"] <= 2 * data["H"]

    def test_empty_window_exit_2(self, capsys):
        code, out, _ = run(capsys, "identity", "--p", "1009", "--e", "1",
                           "--d", "1", "--seed", "1", "--c1", "1/100")
        assert code == 2
        assert "window empty" in payload(out)["error"]

    def test_save_transcript(self, capsys, tmp_path):
        prefix = tmp_path / "run"
        code, _, _ = run(capsys, "identity", "--p", "101", "--e", "5", "--d", "2",
                         "--seed", "9", "--save-transcript", str(prefix))
        assert code in (0, 1)
        f_head = json.loads((tmp_path / "run.f.jsonl").read_text().splitlines()[0])
        g_head = json.loads((tmp_path / "run.g.jsonl").read_text().splitlines()[0])
        assert f_head["p"] == 101 and g_head["p"] == 101

    def test_c2_reported_when_passed(self, capsys):
        code, out, _ = run(capsys, "identity", "--p", "101", "--e", "5", "--d", "2",
                           "--seed", "9", "--c2", "2")
        assert code in (0, 1)
        assert "cond_ed_holds_c2" in payload(out)


class TestInterpolate:
    def test_instance_round_trip(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--p", "101", "--e", "5", "--d", "2", "--seed", "7",
            "--require-square-free", "--out", str(path))
        spec = read_instance(path)
        code, out, _ = run(capsys, "interpolate", "--instance", str(path))
        assert code == 0
        data = payload(out)
        assert data["recovered_f"] == [str(c) for c in spec.f.coeffs]
        assert data["rank_violations"] == 0
        assert data["query_count"] <= data["query_budget"]

    @pytest.mark.parametrize("text", ['{"p": 101, "e": 5, "d": 2, "f": 5}', "5"])
    def test_malformed_instance_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "interpolate", "--instance", str(path))
        assert code == 2
        assert out.count("\n") == 1 and "error" in payload(out)
        assert "Traceback" not in err

    def test_e1_bad_n_exit_2(self, capsys):
        code, out, err = run(capsys, "interpolate", "--p", "101", "--e", "1", "--d", "2",
                             "--seed", "3", "--n", "7")
        assert code == 2
        assert payload(out) == {"error": "n must divide p - 1"}
        assert "Traceback" not in err

    def test_exponential_walk_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("POWERPROBE_BUDGET", str(10 ** 6))
        code, out, err = run(capsys, "interpolate", "--p", "65537", "--e", "2",
                             "--d", "40", "--seed", "1")
        assert code == 2
        assert out.count("\n") == 1
        assert "budget" in payload(out)["error"]
        assert "Traceback" not in err

    def test_inline_generation(self, capsys):
        code, out, _ = run(capsys, "interpolate", "--p", "101", "--e", "5",
                           "--d", "2", "--seed", "7")
        assert code == 0
        assert payload(out)["recovered_f"] == ["41", "19", "1"]

    def test_instance_and_inline_conflict(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--p", "101", "--e", "5", "--d", "2", "--seed", "7",
            "--out", str(path))
        code, out, _ = run(capsys, "interpolate", "--instance", str(path),
                           "--p", "101", "--e", "5", "--d", "2")
        assert code == 2
        assert "error" in payload(out)

    def test_transcript_replay(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        t = tmp_path / "t.jsonl"
        run(capsys, "gen", "--p", "101", "--e", "5", "--d", "2", "--seed", "7",
            "--require-square-free", "--out", str(inst))
        code, out, _ = run(capsys, "interpolate", "--instance", str(inst),
                           "--save-transcript", str(t))
        assert code == 0
        first = payload(out)
        code, out, _ = run(capsys, "interpolate", "--transcript", str(t),
                           "--d", "2")
        assert code == 0
        again = payload(out)
        for data in (first, again):
            data.pop("wall_time_ms")
        assert again == first
        # one header line, then one entry per distinct point: x = 0..2d
        assert len(t.read_text().splitlines()) == 1 + first["query_count"] == 1 + 5

    def test_incomplete_transcript(self, capsys, tmp_path):
        oracle = LocalPowerOracle(101, 5, Poly(101, [41, 19, 1]))
        for x in range(3):
            oracle.query(x)
        t = tmp_path / "short.jsonl"
        write_transcript(oracle, t)
        code, out, _ = run(capsys, "interpolate", "--transcript", str(t), "--d", "2")
        assert code == 2
        assert "transcript incomplete" in payload(out)["error"]

    def test_answer_outside_field_rejected(self, capsys, tmp_path):
        # one honest answer shifted by p must blame the transcript, not the oracle
        oracle = LocalPowerOracle(101, 5, Poly(101, [41, 19, 1]))
        for x in range(12):
            oracle.query(x)
        entries = list(oracle.transcript)
        entries[3] = (entries[3][0], entries[3][1] + 101)
        t = tmp_path / "shifted.jsonl"
        t.write_text(transcript_to_jsonl(101, 5, entries))
        code, out, _ = run(capsys, "interpolate", "--transcript", str(t), "--d", "2")
        assert code == 2
        assert out.count("\n") == 1
        assert "transcript entry 4" in payload(out)["error"]

    def test_square_free_gate_and_force(self, capsys, tmp_path):
        # (X+2)^2 over p=101: refused without --force, fails honestly with it
        spec_json = json.dumps({"p": 101, "e": 5, "d": 2,
                                "f": ["4", "4", "1"]}, indent=2) + "\n"
        path = tmp_path / "sq.json"
        path.write_text(spec_json)
        code, out, _ = run(capsys, "interpolate", "--instance", str(path))
        assert code == 2
        assert "square-free required" in payload(out)["error"]
        code, out, _ = run(capsys, "interpolate", "--instance", str(path), "--force")
        assert code == 2  # true f is filtered out, no candidate survives

    def test_n_flag(self, capsys):
        code, out, _ = run(capsys, "interpolate", "--p", "1009", "--e", "2",
                           "--d", "2", "--seed", "9", "--n", "2")
        assert code == 0
        assert payload(out)["n"] == 2

    def test_non_clean_n_few_candidates(self, capsys):
        # n = 9 does not divide (p-1)/e = 336
        code, out, _ = run(capsys, "interpolate", "--p", "1009", "--e", "3",
                           "--d", "2", "--seed", "1", "--n", "9")
        assert code == 0
        assert out.count("\n") == 1
        assert payload(out)["candidates_examined"] <= 4


class TestSweep:
    def grid(self, tmp_path, **extra):
        spec = {"primes": [13, 31], "e_divisor_policy": {"max": 4},
                "d_range": [1, 2], "experiments": ["value_set"], "seed": 1}
        spec.update(extra)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        return path

    def test_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "out.csv"
        code, out, _ = run(capsys, "sweep", "--grid", str(self.grid(tmp_path)),
                           "--out", str(out_csv))
        assert code == 0
        data = payload(out)
        assert data["rows"] == data["ok"]
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("experiment,")
        assert len(lines) == data["rows"] + 1

    def test_malformed_grid(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, out, _ = run(capsys, "sweep", "--grid", str(path),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "malformed grid spec" in payload(out)["error"]
        assert "line" in payload(out)["error"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"primes": [13], "bogus": True}))
        code, out, _ = run(capsys, "sweep", "--grid", str(path),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "unknown grid keys" in payload(out)["error"]

    @pytest.mark.parametrize("bad", [
        {"e_divisor_policy": [0]}, {"e_divisor_policy": ["a"]},
        {"e_divisor_policy": {"max": "x"}}, {"primes": ["a"]}, {"primes": [2.5]},
        {"primes": 101}, {"seed": [1]}, {"constant": [1]}])
    def test_malformed_shapes_exit_2(self, capsys, tmp_path, bad):
        code, out, err = run(capsys, "sweep", "--grid", str(self.grid(tmp_path, **bad)),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert out.count("\n") == 1 and "error" in payload(out)
        assert not (tmp_path / "x.csv").exists()

    def test_modulus_from_2_62_exits_2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--grid",
                           str(self.grid(tmp_path, primes=[13, 2 ** 62 + 1])),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert out.count("\n") == 1 and "below 2^62" in payload(out)["error"]
        assert not (tmp_path / "x.csv").exists()

    def test_negative_e_and_bad_H_policy_give_error_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "e.csv"
        for extra in ({"primes": [13], "e_divisor_policy": [-4]},
                      {"H_policy": "bogus"}):
            code, out, _ = run(capsys, "sweep", "--grid", str(self.grid(tmp_path, **extra)),
                               "--out", str(out_csv))
            assert code == 0
            data = payload(out)
            assert data["rows"] == data["error"] > 0

    def test_budget_rows_exit_0(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POWERPROBE_BUDGET", "3")
        out_csv = tmp_path / "b.csv"
        code, out, _ = run(capsys, "sweep", "--grid", str(self.grid(tmp_path)),
                           "--out", str(out_csv))
        assert code == 0
        data = payload(out)
        assert data["budget"] > 0


class TestRootsWindow:
    def test_roots(self, capsys):
        code, out, _ = run(capsys, "roots", "--p", "13", "--e", "3", "8")
        assert code == 0
        assert payload(out)["roots"] == [2, 5, 6]

    def test_roots_at_61_bits(self, capsys):
        p = (1 << 61) - 1
        cube = pow(123456789, 3, p)
        code, out, _ = run(capsys, "roots", "--p", str(p), "--e", "3", str(cube))
        assert code == 0
        assert out.count("\n") == 1
        roots = payload(out)["roots"]
        assert len(roots) == 3 and 123456789 in roots
        assert all(pow(y, 3, p) == cube for y in roots)

    def test_roots_below_2_62(self, capsys):
        p = (1 << 62) - 57  # the largest prime below 2^62
        cube = pow(987654321, 3, p)
        code, out, _ = run(capsys, "roots", "--p", str(p), "--e", "3", str(cube))
        assert code == 0
        assert out.count("\n") == 1
        roots = payload(out)["roots"]
        assert len(roots) == 3 and 987654321 in roots
        assert all(pow(y, 3, p) == cube for y in roots)

    def test_budget_refusals_exit_2(self, capsys, monkeypatch):
        # H = 6,055,366,880 at d = 40, and 1,164,127,965 roots of 1: each is
        # refused before any of its work, with one JSON line
        monkeypatch.delenv("POWERPROBE_BUDGET", raising=False)
        p, e = "2305843009213693951", "1164127965"
        for argv in (["identity", "--p", p, "--e", e, "--d", "40", "--seed", "1", "--equal-g"],
                     ["roots", "--p", p, "--e", e, "1"]):
            code, out, _ = run(capsys, *argv)
            assert code == 2
            assert out.count("\n") == 1
            assert payload(out)["error"].startswith("budget: estimated")

    def test_roots_with_filter(self, capsys):
        code, out, _ = run(capsys, "roots", "--p", "13", "--e", "3", "--n", "2", "8")
        assert code == 0
        data = payload(out)
        assert data["n"] == 2
        assert set(data["roots"]) <= {2, 5, 6}

    def test_window(self, capsys):
        code, out, _ = run(capsys, "window", "--p", "10007", "--e", "4", "--d", "2")
        assert code == 0
        data = payload(out)
        assert data["H"] == 12
        assert data["cond_ed_holds"] is True

    @pytest.mark.parametrize("zeros", [40, 120])
    def test_window_huge_c1(self, capsys, zeros):
        code, out, _ = run(capsys, "window", "--p", "101", "--e", "5", "--d", "2",
                           "--c1", "1" + "0" * zeros)
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        assert payload(out)["H"] == 100

    def test_negative_c2_fails(self, capsys):
        # e = 5 <= -min(...) is false; squaring must not drop the sign
        for c2 in ("-1", "-1/2"):
            code, out, _ = run(capsys, "window", "--p", "101", "--e", "5", "--d", "2",
                               "--c2=" + c2)
            assert code == 0
            assert payload(out)["cond_ed_holds_c2"] is False


class TestTopLevel:
    def test_calls_in_a_row_match_fresh_calls(self, capsys):
        # main builds its parser once per process; calls after the first,
        # a usage error included, print what a fresh parser would
        argvs = (["identity", "--p", "101", "--e", "5", "--d", "2", "--seed", "3", "--equal-g"],
                 ["identity", "--p", "abc"],
                 ["identity", "--p", "101", "--e", "5", "--d", "2", "--seed", "9",
                  "--require-non-pp-ratio"])

        def call(argv):
            code, out, err = run(capsys, *argv)
            data = payload(out)
            data.pop("wall_time_ms", None)
            return code, data, err

        in_a_row = [call(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            _build_parser.cache_clear()
            fresh.append(call(argv))
        assert [code for code, _, _ in in_a_row] == [0, 2, 1]
        assert in_a_row == fresh

    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["gen", "--nonsense"]) == 2

    def test_stdout_always_json(self, capsys, tmp_path):
        cases = [
            ["window", "--p", "13", "--e", "2", "--d", "1"],
            ["roots", "--p", "13", "--e", "5", "7"],
            ["gen", "--p", "12", "--e", "2", "--d", "1",
             "--out", str(tmp_path / "x.json")],
        ]
        for argv in cases:
            code = main(argv)
            out = capsys.readouterr().out
            if out.strip():
                json.loads(out)


# Flags of each subcommand, with the values each takes (None: no value);
# -h/--help is left out, since it prints argparse's help text.  Values are
# mostly small and valid, so that most calls get past the checks, and
# sometimes garbage.
_GARBAGE = ["x", "-7", "1e3", "0x10", "1/0", "nan", "99999999999999999999", "-", "--", "--p", ""]
_INTS = {"--p": [2, 13, 31, 101, 1009, 12], "--e": [1, 2, 3, 4, 5, 6, 0], "--d": [1, 2, 3, 0, 40],
         "--seed": [0, 1, 2, -1], "--n": [1, 2, 3, 0, -1], "--m-cap": [1, 2, 8, 64, 0]}
_FRACS = ["1", "1/2", "3/2", "0", "-1", "2", "1/0", "x", ""]
_COMMON = ("--p", "--e", "--d", "--seed")
_CLI_FLAGS = {
    "gen": _COMMON + ("--with-g", "--equal-g", "--require-square-free",
                      "--require-non-pp-ratio", "--redact", "--out"),
    "identity": _COMMON + ("--instance", "--c1", "--c2", "--equal-g",
                           "--require-non-pp-ratio", "--save-transcript"),
    "interpolate": _COMMON + ("--instance", "--transcript", "--c1", "--c2", "--c3", "--n",
                              "--m-cap", "--force", "--save-transcript"),
    "sweep": ("--grid", "--out"),
    "roots": ("--p", "--e", "--n", "VALUE"),
    "window": ("--p", "--e", "--d", "--c1", "--c2"),
}
_SWITCHES = {"--with-g", "--equal-g", "--require-square-free", "--require-non-pp-ratio",
             "--redact", "--force"}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input files of every kind, valid and not, and places to write to."""
    root = tmp_path_factory.mktemp("fuzz")
    inst = LocalPowerOracle(13, 3, Poly(13, [2, 1]))
    for x in range(5):
        inst.query(x)
    write_transcript(inst, root / "t.jsonl")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name, flag in (("inst.json", "--with-g"), ("redacted.json", "--redact")):
            main(["gen", "--p", "13", "--e", "3", "--d", "2", "--seed", "1", flag,
                  "--out", str(root / name)])
    (root / "grid.json").write_text(json.dumps(
        {"primes": [13, 12], "e_divisor_policy": {"max": 4}, "d_range": [1, 2],
         "experiments": ["value_set", "interpolating_count"], "seed": 1}))
    (root / "junk.json").write_text("{ not json")
    (root / "list.json").write_text("[1, 2]")
    (root / "scalar_f.json").write_text('{"p": 101, "e": 5, "d": 2, "f": 5}')
    (root / "scalar.json").write_text("5")
    (root / "zero_e_grid.json").write_text(json.dumps(
        {"primes": [13], "e_divisor_policy": [0], "experiments": ["value_set"]}))
    (root / "str_prime_grid.json").write_text(json.dumps(
        {"primes": ["a"], "experiments": ["value_set"]}))
    inputs = [str(root / name) for name in ("t.jsonl", "inst.json", "redacted.json",
                                            "grid.json", "junk.json", "list.json",
                                            "scalar_f.json", "scalar.json", "zero_e_grid.json",
                                            "str_prime_grid.json", "missing")]
    inputs.append(str(root))  # a directory
    outputs = [str(root / "out"), str(root / "no" / "such" / "dir"), str(root)]
    return inputs, outputs


@st.composite
def cli_argvs(draw, inputs, outputs):
    def value(flag):
        # paths come from the fixture's files only, so nothing is written
        # outside its directory
        paths = {"--instance": inputs, "--transcript": inputs, "--grid": inputs,
                 "--out": outputs, "--save-transcript": outputs}
        if flag in paths:
            return draw(st.sampled_from(paths[flag]))
        if draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(_GARBAGE))
        if flag in _INTS or flag == "VALUE":
            return str(draw(st.sampled_from(_INTS.get(flag, [0, 1, 3, 9, 12]))))
        return draw(st.sampled_from(_FRACS))

    cmd = draw(st.sampled_from(sorted(_CLI_FLAGS) + ["nope", "--p"]))
    flags = _CLI_FLAGS.get(cmd, ())
    argv = [cmd]
    for flag in draw(st.permutations(flags)):
        # the flags most commands need are there nine times in ten
        if draw(st.integers(0, 9)) < (9 if flag in _COMMON + ("VALUE", "--grid", "--out") else 5):
            if flag != "VALUE":
                argv.append(flag)
            if flag not in _SWITCHES:
                argv.append(value(flag))
    if draw(st.integers(0, 9)) == 0:  # a stray token
        argv.append(draw(st.sampled_from(_GARBAGE + list(flags))))
    return argv


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_json_line_and_typed_exit(self, fuzz_files, data):
        argv = data.draw(cli_argvs(*fuzz_files))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"POWERPROBE_BUDGET": "20000"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        # one JSON object on one line; only gen without --out prints the
        # instance file itself, an indented JSON object
        if not (argv[0] == "gen" and code == 0):
            assert len(out.getvalue().splitlines()) == 1, (argv, out.getvalue())
        assert isinstance(json.loads(out.getvalue()), dict), argv
        assert "Traceback" not in err.getvalue(), argv


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", [
        ("identity", "--p", "101", "--e", "5", "--d", "2", "--seed", "7"),
        ("interpolate", "--p", "101", "--e", "5", "--d", "2", "--seed", "3"),
        ("roots", "--p", "13", "--e", "3", "8"),
        ("window", "--p", "101", "--e", "5", "--d", "2")])
    def test_payload_matches_readme(self, capsys, argv):
        # the command is listed under the README's heading for it, and its
        # payload, but for wall_time_ms, is the first JSON block there
        with open(README) as fh:
            section = fh.read().split("\n### %s\n" % argv[0], 1)[1].split("\n#", 1)[0]
        assert " ".join(("powerprobe",) + argv) + "\n" in section
        want = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        _, out, _ = run(capsys, *argv)
        got = payload(out)
        for data in (want, got):
            data.pop("wall_time_ms", None)
        assert got == want
