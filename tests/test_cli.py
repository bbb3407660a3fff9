import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest

import malcev.cli as cli
from malcev import cayley, congruence, group_derivation, ideals
from malcev.cayley import CayleyBall
from malcev.congruence import CapExceeded
from malcev.group_derivation import ObstructionCertificate, OccurrenceMismatch
from malcev.ideals import AlignmentViolation
from malcev.cli import run
from malcev.presentation import build_presentation


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.rstrip("\n"), captured.err


def test_nf_worked_example(capsys):
    code = run(["nf", "-n", "2", "-w", "a b a C2 d b c A1 B1 D1"])
    out, err = out_of(capsys)
    assert code == 0
    assert out == "a b a C2 A2 D2 c A1 B2 C2"
    assert err == ""


def test_nf_json(capsys):
    code = run(["nf", "-n", "1", "--format", "json", "-w", "A1 C1"])
    out, _ = out_of(capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "command": "nf",
        "n": 1,
        "result": {"input": "A1 C1", "normal_form": "d a"},
        "violations": [],
    }


def test_eq(capsys):
    assert run(["eq", "-n", "1", "-w", "d a", "-w", "A1 C1"]) == 0
    assert out_of(capsys)[0] == "true"
    assert run(["eq", "-n", "1", "-w", "c a", "-w", "B1 C1"]) == 1
    assert out_of(capsys)[0] == "false"


def test_eq_needs_two_words(capsys):
    assert run(["eq", "-n", "1", "-w", "d a"]) == 2
    _, err = out_of(capsys)
    assert "two -w words" in err


def test_divides(capsys):
    assert run(["divides", "-n", "1", "-p", "d", "-q", "A1 C1"]) == 0
    assert out_of(capsys)[0] == "a"
    assert run(["divides", "-n", "1", "-p", "a", "-q", "b a"]) == 1
    assert out_of(capsys)[0] == "none"


def test_divides_witness_is_normal_form(capsys):
    assert run(["divides", "-n", "1", "-p", "d", "-q", "d b d b"]) == 0
    assert out_of(capsys)[0] == "b A1 D1"


def test_divides_deep_class(capsys):
    # the class of (d a)^21 has 2^21 words, past the search's cap
    assert run(["divides", "-n", "1", "-p", "d", "-q", " ".join(["d a"] * 21)]) == 0
    out, err = out_of(capsys)
    assert out == " ".join(["a"] + ["d a"] * 20)
    assert err == ""


def test_intersect_json(capsys):
    code = run(["intersect", "-n", "1", "--format", "json", "-p", "A1", "-q", "d"])
    out, _ = out_of(capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "intersect"
    assert doc["n"] == 1
    assert doc["violations"] == []
    assert doc["result"] == {
        "kind": "generators",
        "provenance": "base-search",
        "generators": ["A1 D1", "d a"],
    }


def test_intersect_text(capsys):
    assert run(["intersect", "-n", "2", "-p", "A1", "-q", "d"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines() == [
        "kind: principal",
        "provenance: base-search",
        "generators:",
        "  d a",
    ]


def test_gen_text(capsys):
    assert run(["gen", "-n", "1"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert "generators: a b c d A1 B1 C1 D1" in lines
    assert "  d a = A1 C1" in lines
    assert "  A1 D1 = d b" in lines
    assert "  c b = B1 D1" in lines
    assert "P: c d A1 B1" in lines
    assert "Q: a b C1 D1" in lines


def test_gen_json(capsys):
    assert run(["gen", "-n", "2", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys)[0])
    result = doc["result"]
    assert len(result["generators"]) == 12
    assert result["relations"][0] == {"left": "d a", "right": "A1 C1"}
    assert result["L"] == ["d a", "A1 D1", "A2 D2", "c b", "B2 C2"]
    assert result["R"] == ["A1 C1", "A2 C2", "d b", "B2 D2", "B1 D1"]


def test_gen_json_lists_generators_in_index_order(capsys):
    assert run(["gen", "-n", "12", "--format", "json"]) == 0
    generators = json.loads(out_of(capsys)[0])["result"]["generators"]
    assert generators == (
        "a b c d "
        "A1 A2 A3 A4 A5 A6 A7 A8 A9 A10 A11 A12 "
        "B1 B2 B3 B4 B5 B6 B7 B8 B9 B10 B11 B12 "
        "C1 C2 C3 C4 C5 C6 C7 C8 C9 C10 C11 C12 "
        "D1 D2 D3 D4 D5 D6 D7 D8 D9 D10 D11 D12"
    ).split()


def test_ball_text_and_dot_file(tmp_path, capsys):
    dot_file = tmp_path / "ball.dot"
    code = run(["ball", "-n", "1", "--radius", "1", "--dot", str(dot_file)])
    out, _ = out_of(capsys)
    assert code == 0
    assert "vertices: 9" in out
    assert "edges: 8" in out
    assert f"dot: {dot_file}" in out
    dot = dot_file.read_text()
    assert dot.startswith("digraph cayley {")
    assert dot.count("->") == 8


def test_ball_dot_to_stdout(capsys):
    assert run(["ball", "-n", "1", "--radius", "0", "--dot", "-"]) == 0
    out, _ = out_of(capsys)
    assert out == 'digraph cayley {\n  "1";\n}'


def test_ball_negative_radius(capsys):
    assert run(["ball", "-n", "1", "--radius", "-1"]) == 2
    _, err = out_of(capsys)
    assert "radius" in err


def test_verify_codet(capsys):
    code = run(["verify", "-n", "1", "--suite", "codet", "--max-len", "2"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out.splitlines()[-1] == "violations: 0"


def test_verify_alignment_text(capsys):
    code = run(
        [
            "verify", "-n", "1", "--suite", "alignment",
            "--max-len", "1", "--window", "3", "--samples", "5",
        ]
    )
    out, _ = out_of(capsys)
    assert code == 0
    lines = out.splitlines()
    assert "max generators: 2" in lines
    assert "non-principal pairs: 2" in lines
    assert "  (A1; d) -> A1 D1, d a" in lines
    assert "  (d; A1) -> A1 D1, d a" in lines
    assert lines[-1] == "violations: 0"


def test_verify_alignment_json_seed_env(capsys):
    code = run(
        [
            "verify", "-n", "1", "--suite", "alignment", "--format", "json",
            "--max-len", "1", "--window", "3", "--samples", "5", "--seed", "42",
        ]
    )
    doc = json.loads(out_of(capsys)[0])
    assert code == 0
    assert doc["result"]["seed"] == 42
    assert doc["result"]["ok"] is True
    assert doc["result"]["sampled"] == 5


def test_verify_seed_ignores_the_environment(monkeypatch, capsys):
    # --seed is the one way to set the seed: MALCEV_SEED is not read
    monkeypatch.setenv("MALCEV_SEED", "abc")
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "1"]
    assert run(argv + ["--window", "3", "--samples", "5"]) == 0
    lines = out_of(capsys)[0].splitlines()
    assert lines[-2].endswith(", seed 1729")
    assert lines[-1] == "violations: 0"


def test_verify_nf_oracle(capsys):
    code = run(["verify", "-n", "1", "--suite", "nf-oracle", "--max-len", "3"])
    assert code == 0
    assert out_of(capsys)[0].splitlines()[-1] == "violations: 0"


def test_verify_cancellative(capsys):
    code = run(["verify", "-n", "1", "--suite", "cancellative", "--max-len", "2"])
    assert code == 0


def test_verify_indegree(capsys):
    code = run(["verify", "-n", "2", "--suite", "indegree", "--max-len", "2"])
    assert code == 0


def test_obstruct_json(capsys):
    assert run(["obstruct", "-n", "1", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys)[0])
    assert doc["result"]["step_count"] == 7
    assert doc["result"]["monoid_witness"] == ["c a", "B1 C1"]
    assert doc["result"]["steps"][0]["kind"] == "insert"


def test_obstruct_json_builds_no_text(monkeypatch, capsys):
    def boom(cert, pres):
        raise RuntimeError("certificate_text called for --format json")

    monkeypatch.setattr(group_derivation, "certificate_text", boom)
    assert run(["obstruct", "-n", "3", "--format", "json"]) == 0
    assert json.loads(out_of(capsys)[0])["command"] == "obstruct"


def test_obstruct_text_builds_no_json(monkeypatch, capsys):
    def boom(cert):
        raise RuntimeError("ObstructionCertificate.to_dict called for text")

    monkeypatch.setattr(ObstructionCertificate, "to_dict", boom)
    assert run(["obstruct", "-n", "3"]) == 0
    assert out_of(capsys)[0].startswith("group derivation for n=3: 15 steps\n")


def test_obstruct_text(capsys):
    assert run(["obstruct", "-n", "2"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines()[0] == "group derivation for n=2: 11 steps"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "nf.txt"
    code = run(["nf", "-n", "1", "-w", "A1 C1", "--output", str(target)])
    out, _ = out_of(capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "d a\n"


def test_output_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "nf.txt"
    assert run(["nf", "-n", "1", "-w", "a", "--output", str(target)]) == 2
    _, err = out_of(capsys)
    assert err.startswith("error:")
    assert str(target) in err


def test_dot_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "ball.dot"
    assert run(["ball", "-n", "1", "--radius", "1", "--dot", str(target)]) == 2
    _, err = out_of(capsys)
    assert err.startswith("error:")
    assert str(target) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "-n", "1", "--output", ""],
        ["ball", "-n", "1", "--radius", "1", "--dot", ""],
    ],
    ids=["output", "dot"],
)
def test_empty_path_exits_2(argv, capsys):
    # an empty path is a path that cannot be opened, not a missing option
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("suite", ["nf-oracle", "codet", "alignment"])
def test_verify_negative_max_len_exits_2(suite, capsys):
    assert run(["verify", "-n", "1", "--suite", suite, "--max-len", "-1"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: --max-len must be nonnegative, got -1\n"


def test_verify_negative_samples_exits_2(capsys):
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "1"]
    assert run(argv + ["--samples", "-1"]) == 2
    assert out_of(capsys)[1] == "error: --samples must be nonnegative, got -1\n"


def test_unknown_token_exits_2(capsys):
    assert run(["nf", "-n", "1", "-w", "e"]) == 2
    _, err = out_of(capsys)
    assert err.startswith("error:")


def test_bad_n_exits_2(capsys):
    # on every call: a failed build leaves nothing in the presentation cache
    for _ in range(2):
        for n in ("0", "-1"):
            assert run(["gen", "-n", n]) == 2
            assert out_of(capsys) == ("", f"error: n must be a positive integer, got {n}\n")


def test_missing_argument_exits_2(capsys):
    assert run(["nf", "-n", "1"]) == 2
    assert run(["verify", "-n", "1", "--suite", "bogus", "--max-len", "2"]) == 2


def test_window_too_small_exits_2(capsys):
    code = run(
        [
            "verify", "-n", "1", "--suite", "alignment",
            "--max-len", "2", "--window", "2",
        ]
    )
    assert code == 2
    _, err = out_of(capsys)
    assert "window" in err


def test_ball_radius_over_budget_exits_2(capsys):
    # sum(24^k, k <= 6) words at n = 5, refused before any vertex is built
    assert run(["ball", "-n", "5", "--radius", "6"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == (
        "error: --radius 6 means 199411801 words of length <= 6 at n=5, "
        "over the budget of 1000000 words\n"
    )
    assert run(["ball", "-n", "3", "--radius", "5"]) == 2
    assert "--radius 5 means 1118481 words" in out_of(capsys)[1]
    assert run(["ball", "-n", "1", "--radius", str(10**12)]) == 2
    assert "more than 2^64 words" in out_of(capsys)[1]


@pytest.mark.parametrize("n, generators", [(250000, 1000004), (10**9, 4 * 10**9 + 4)])
def test_huge_n_refused_before_the_presentation(n, generators, capsys):
    # the 4+4n generators alone exceed the word budget
    start = time.perf_counter()
    code = run(["nf", "-n", str(n), "-w", "a"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out_of(capsys) == (
        "",
        f"error: -n {n} means {generators} generators, over the budget of "
        "1000000 words\n",
    )
    assert elapsed < 0.5
    assert run(["verify", "-n", str(n), "--suite", "codet", "--max-len", "0"]) == 2
    assert out_of(capsys)[1].startswith(f"error: -n {n} means")


def test_verify_max_len_over_budget_exits_2(capsys):
    # sum(8^k, k <= 7) words at n = 1; every suite iterates over them
    for suite in ("nf-oracle", "cancellative", "codet", "indegree", "alignment"):
        assert run(["verify", "-n", "1", "--suite", suite, "--max-len", "7"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: --max-len 7 means 2396745 words")
        assert "budget of 1000000 words" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--suite", "alignment", "--max-len", "1"], "--max-len"),
        (["ball", "--radius", "1"], "--radius"),
    ],
)
def test_over_budget_refused_before_the_presentation(monkeypatch, capsys, argv, flag):
    # 1 + 1,000,000 words of length <= 1 at n = 249,999; the count needs
    # only the 4+4n generators, so nothing is built
    def unbuilt(n):
        raise AssertionError(f"presentation built for n={n}")

    monkeypatch.setattr(cli, "build_presentation", unbuilt)
    start = time.perf_counter()
    code = run(argv[:1] + ["-n", "249999"] + argv[1:])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out_of(capsys) == (
        "",
        f"error: {flag} 1 means 1000001 words of length <= 1 at n=249999, "
        "over the budget of 1000000 words\n",
    )
    assert elapsed < 0.5


def test_oversized_oracle_sample_exits_2(capsys):
    # 235,036 elements of length <= 6 at n = 1 make 5.5 * 10^10 pairs; a
    # sample of 10^8 of them is refused before the elements are listed
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "6"]
    start = time.perf_counter()
    assert run(argv + ["--samples", "100000000"]) == 2
    elapsed = time.perf_counter() - start
    assert out_of(capsys) == (
        "",
        "error: an oracle sample of 100000000 pairs is over the budget of "
        "1000000 pairs\n",
    )
    assert elapsed < 0.5
    argv[-1] = "4"
    assert run(argv + ["--samples", "1000001"]) == 2
    assert "sample of 1000001 pairs" in out_of(capsys)[1]


def test_every_pair_is_budgeted_on_the_pairs_that_meet(capsys, monkeypatch):
    # the 3,097,600 pairs at n = 2, max-len 3 are all checked: 13,758 of
    # them meet.  At n = 1, max-len 2, 372 of the 4,900 pairs meet, over a
    # budget of 371, read at call time
    argv = ["verify", "-n", "2", "--suite", "alignment", "--max-len", "3"]
    assert run(argv + ["--samples", "3097600"]) == 0
    out, err = out_of(capsys)
    assert "\noracle: 3097600 sampled pairs, window 6, seed 1729\n" in out
    assert out.endswith("\nviolations: 0") and err == ""
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 371)
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "2"]
    assert run(argv + ["--samples", "4900"]) == 2
    assert out_of(capsys) == (
        "",
        "error: an oracle check of every pair is over the budget of 371 "
        "meeting pairs\n",
    )


@pytest.mark.parametrize("window", ["8", "20000"])
def test_oracle_runs_at_any_window(capsys, window):
    # no ideal depends on the window, so windows far past max-len + 1 run
    # the same oracle as window 3 and differ only where the window is echoed
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "2"]
    argv += ["--samples", "4900"]
    for fmt in ("text", "json"):
        assert run(argv + ["--window", "3", "--format", fmt]) == 0
        expected = out_of(capsys)
        assert run(argv + ["--window", window, "--format", fmt]) == 0
        out, err = out_of(capsys)
        assert err == expected[1]
        if fmt == "json":
            doc = json.loads(out)
            assert doc["result"].pop("window") == int(window)
            base = json.loads(expected[0])
            assert base["result"].pop("window") == 3
            assert doc == base
        else:
            assert out == expected[0].replace(
                "oracle: 4900 sampled pairs, window 3,",
                f"oracle: 4900 sampled pairs, window {window},",
            )
            assert out.endswith("violations: 0")


def test_ball_exports_dot_only_when_asked(monkeypatch, capsys):
    def boom(ball, *spelling):
        raise RuntimeError("DOT built without --dot")

    monkeypatch.setattr(cayley, "export_dot", boom)
    monkeypatch.setattr(cayley, "dot_pieces", boom)
    assert run(["ball", "-n", "1", "--radius", "2", "--root", "d"]) == 0
    assert out_of(capsys)[0] == "root: d\nradius: 2\nvertices: 70\nedges: 72"
    assert run(["ball", "-n", "1", "--radius", "2", "--format", "json"]) == 0
    result = json.loads(out_of(capsys)[0])["result"]
    assert "dot" not in result and result["dot_path"] is None


def test_ball_dot_output_is_export_dot_in_every_form(tmp_path, capsys):
    # text, JSON and file alike: the DOT's 4,098 pieces at n = 1 and radius
    # 5, about 2 MB, take 30 joins of about _JOIN_CHARS each
    dot = cayley.export_dot(cayley.build_ball((), 5, build_presentation(1)))
    argv = ["ball", "-n", "1", "--radius", "5", "--dot"]
    assert run(argv + ["-"]) == 0
    assert capsys.readouterr() == (dot, "")
    assert run(argv + ["-", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["dot"] == dot
    target = tmp_path / "ball.dot"
    for fmt in ("text", "json"):
        assert run(argv + [str(target), "--format", fmt]) == 0
        assert target.read_bytes() == dot.encode()


def test_ball_json_writes_the_dot_unescaped_in_bounded_joins(monkeypatch):
    # the pieces are built escaped: the escaper never sees the DOT, and no
    # write holds more than a twentieth of the document
    seen = []

    def escape(text):
        seen.append(len(text))
        return encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", escape)
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["ball", "-n", "1", "--radius", "5", "--dot", "-", "--format", "json"]
    assert run(argv) == 0
    out = stdout.getvalue()
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert max(seen) < 20
    assert max(stdout.sizes) * 20 < len(out)


def test_ball_builds_no_edge_list(capsys):
    # counts and DOT come from the sources and their steps; a ball holds no
    # vertex or edge list as Words (the tests derive those themselves)
    assert not hasattr(CayleyBall, "edges") and not hasattr(CayleyBall, "vertices")
    for dot in ([], ["--dot", "-"]):
        for fmt in ("text", "json"):
            argv = ["ball", "-n", "1", "--radius", "2", "--format", fmt, *dot]
            assert run(argv) == 0, argv
            assert out_of(capsys)[1] == ""


def test_invariant_violation_exits_3(monkeypatch, capsys):
    def boom(p, q, pres):
        raise AlignmentViolation("planted")

    monkeypatch.setattr(ideals, "intersect_principal", boom)
    assert run(["intersect", "-n", "1", "-p", "a", "-q", "b"]) == 3
    _, err = out_of(capsys)
    assert "invariant violation: planted" in err


@pytest.mark.parametrize(
    "module, name, error, argv, code, err",
    [
        (
            ideals,
            "verify_alignment",
            AlignmentViolation,
            ["verify", "-n", "1", "--suite", "alignment", "--max-len", "1"],
            3,
            "invariant violation: planted\n",
        ),
        (
            group_derivation,
            "verify_obstruction",
            OccurrenceMismatch,
            ["obstruct", "-n", "1"],
            3,
            "invariant violation: planted\n",
        ),
        (
            congruence,
            "partition_agreement",
            CapExceeded,
            ["verify", "-n", "1", "--suite", "nf-oracle", "--max-len", "1"],
            4,
            "resource limit: planted (verify -n 1 --suite nf-oracle --max-len 1)\n",
        ),
    ],
)
def test_errors_raised_in_lazily_loaded_modules_keep_their_exit_codes(
    module, name, error, argv, code, err, monkeypatch, capsys
):
    # run names only the presentation module's classes, which these derive
    # from or are
    def boom(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(module, name, boom)
    assert run(argv) == code
    assert out_of(capsys) == ("", err)


def test_tampered_script_exits_3(monkeypatch, capsys):
    real = group_derivation.build_obstruction_script

    def tampered(pres):
        script = list(real(pres))
        script[2] = script[2]._replace(relation_index=0)
        return tuple(script)

    monkeypatch.setattr(group_derivation, "build_obstruction_script", tampered)
    assert run(["obstruct", "-n", "1"]) == 3
    assert out_of(capsys) == (
        "",
        "invariant violation: step 2: expected d a at position 0, found c b\n",
    )


def test_bad_word_exits_2(capsys):
    assert run(["divides", "-n", "1", "-p", "d", "-q", "A2"]) == 2
    assert out_of(capsys) == ("", "error: 'A2': index outside 1..1\n")


def test_cap_exceeded_exits_4(monkeypatch, capsys):
    def boom(pres, max_len):
        raise CapExceeded("planted")

    monkeypatch.setattr(congruence, "partition_agreement", boom)
    assert run(["verify", "-n", "1", "--suite", "nf-oracle", "--max-len", "1"]) == 4
    _, err = out_of(capsys)
    assert "resource limit: planted" in err
    assert "invariant violation" not in err


def test_cap_exceeded_names_the_command(monkeypatch, capsys):
    def boom(*args):
        raise CapExceeded("planted")

    monkeypatch.setattr(congruence, "partition_agreement", boom)
    assert run(["verify", "-n", "2", "--suite", "nf-oracle", "--max-len", "1"]) == 4
    assert out_of(capsys) == (
        "", "resource limit: planted (verify -n 2 --suite nf-oracle --max-len 1)\n"
    )
    monkeypatch.setattr(cayley, "build_ball", boom)
    assert run(["ball", "-n", "1", "--radius", "1"]) == 4
    assert out_of(capsys)[1] == "resource limit: planted (ball -n 1)\n"


def test_memory_error_exits_4(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(ideals, "verify_alignment", boom)
    assert run(["verify", "-n", "2", "--suite", "alignment", "--max-len", "1"]) == 4
    assert out_of(capsys) == (
        "",
        "resource limit: out of memory "
        "(verify -n 2 --suite alignment --max-len 1)\n",
    )


@pytest.mark.parametrize(
    "n, plant, found, expected",
    [
        (1, lambda pairs: pairs[1:], 17, 18),  # one of the 18 pairs dropped
        (2, lambda pairs: pairs + (("d", "A1", ("A1 D1", "d a")),), 1, 0),
    ],
)
def test_alignment_checks_the_exact_non_principal_count(
    n, plant, found, expected, monkeypatch, capsys
):
    real = ideals.verify_alignment

    def planted(*args, **kwargs):
        report = real(*args, **kwargs)
        return report._replace(non_principal=plant(report.non_principal))

    argv = ["verify", "-n", str(n), "--suite", "alignment", "--max-len", "2"]
    argv += ["--samples", "0"]
    assert run(argv) == 0
    out_of(capsys)
    monkeypatch.setattr(ideals, "verify_alignment", planted)
    assert run(argv) == 1
    assert out_of(capsys)[0].splitlines()[-2:] == [
        f"violation: {found} non-principal pairs, expected exactly {expected}",
        "violations: 1",
    ]
    assert run(argv + ["--format", "json"]) == 1
    assert json.loads(out_of(capsys)[0])["result"]["ok"] is False


def test_parser_reuse_keeps_calls_independent(capsys):
    argv = ["eq", "-n", "1", "--format", "json", "-w"]
    assert run(argv + ["d a", "-w", "A1 C1"]) == 0
    first = json.loads(out_of(capsys)[0])["result"]
    assert run(argv + ["c a", "-w", "B1 C1"]) == 1
    second = json.loads(out_of(capsys)[0])["result"]
    assert first == {"equal": True, "nf1": "d a", "nf2": "d a"}
    assert second == {"equal": False, "nf1": "c a", "nf2": "B1 C1"}


def test_parser_reuse_after_usage_errors(capsys):
    assert run(["eq", "-n", "1", "-w", "d a"]) == 2
    assert run(["nf", "-n", "1"]) == 2
    out_of(capsys)
    assert run(["eq", "-n", "1", "-w", "d a", "-w", "A1 C1"]) == 0
    assert out_of(capsys) == ("true", "")
    assert run(["--help"]) == 0
    help_text = out_of(capsys)[0]
    assert help_text.startswith("usage: malcev")
    assert run(["--help"]) == 0
    assert out_of(capsys)[0] == help_text


def test_parser_built_once_across_runs(capsys):
    cli._parser.cache_clear()
    for word in ("a", "d a", "A1 C1"):
        assert run(["nf", "-n", "1", "-w", word]) == 0
    assert run(["gen", "-n", "2"]) == 0
    assert run(["nf", "-n", "1"]) == 2
    info = cli._parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    assert cli.build_parser() is cli.build_parser()


def test_runs_share_one_presentation_per_n(monkeypatch, capsys):
    # the cache is keyed by the builder too, so this stand-in sees each n once
    built = []

    def counting(n):
        built.append(build_presentation(n))
        return built[-1]

    monkeypatch.setattr(cli, "build_presentation", counting)
    assert run(["nf", "-n", "2", "-w", "A1 D1"]) == 0
    assert run(["nf", "-n", "3", "-w", "A1 D1"]) == 0
    assert run(["nf", "-n", "2", "-w", "A2 C2"]) == 0
    assert run(["eq", "-n", "3", "-w", "A2 C2", "-w", "A1 D1"]) == 0
    assert out_of(capsys) == ("A1 D1\nA1 D1\nA1 D1\ntrue", "")
    assert [pres.n for pres in built] == [2, 3]
    assert cli._presentation(2) is built[0]
    assert cli._presentation(3) is built[1]


def test_presentation_cache_is_bounded(capsys):
    cli._built.cache_clear()
    bound = cli._built.cache_info().maxsize
    for n in range(1, bound + 4):
        assert run(["gen", "-n", str(n)]) == 0
    info = cli._built.cache_info()
    assert (info.currsize, info.misses, info.hits) == (bound, bound + 3, 0)
    assert run(["gen", "-n", str(bound + 3)]) == 0  # the most recent n is kept
    assert run(["gen", "-n", "1"]) == 0  # the least recent was dropped
    info = cli._built.cache_info()
    assert (info.currsize, info.misses, info.hits) == (bound, bound + 4, 1)


def test_import_does_not_build_the_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import malcev.cli as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_entry_point_raises_system_exit():
    with pytest.raises(SystemExit) as info:
        cli.main(["eq", "-n", "1", "-w", "a", "-w", "b"])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["ball", "-n", "1", "--radius", "5", "--dot", "-"], b"digraph cayley {\n"),
        (["gen", "-n", "2"], None),
    ],
    ids=["in-run", "at-the-last-flush"],
)
def test_closed_output_pipe_exits_141_silently(argv, first_line):
    # stdout is block-buffered, as on any pipe: the ball's DOT, about 2 MB,
    # far past what a pipe holds, meets the closed pipe inside run, and gen's
    # few lines, left in the buffer, only at main's flush
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "malcev.cli", *argv],
        env={**env, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# argv that the top-level parser once read whole: usage errors, help, "--",
# abbreviations, bad ints and choices, and argv that name no command first
PARSE_TABLE = [
    [],
    ["-h"],
    ["--help"],
    ["frob"],
    ["frob", "-n", "1"],
    ["-n", "1", "nf", "-w", "a"],
    ["--format", "json", "gen", "-n", "1"],
    ["--", "gen", "-n", "1"],
    ["nf", "-h"],
    ["verify", "--help"],
    ["gen", "-n", "1", "-h", "--bogus"],
    ["nf", "-n", "1", "-w", "a", "--bogus"],
    ["intersect", "-n", "1", "-p", "A1", "-q", "d", "extra", "-x"],
    ["nf", "-n", "1"],
    ["nf", "-n", "1", "-w"],
    ["nf", "-n", "x", "-w", "a"],
    ["ball", "-n", "1", "--radius", "two"],
    ["gen", "-n", "1", "--format", "xml"],
    ["verify", "-n", "1", "--suite", "bogus", "--max-len", "1"],
    ["verify", "-n", "1", "--s", "codet", "--max-len", "1"],
    ["verify", "-n", "1", "--suite", "codet", "--max-len", "1", "--seed", "x"],
    ["gen", "-n", "1", "--", "extra"],
    ["nf", "-n", "1", "--", "-w", "a"],
    ["nf", "-n", "1", "--wor", "d a"],
    ["nf", "-n", "1", "-w", "d a", "--form", "json"],
    ["gen", "-n=1"],
    ["gen", "-n1", "--format=json"],
    ["eq", "-n", "1", "-w", "d a", "-w", "A1 C1"],
    ["divides", "-n", "1", "-p", "d", "-q", "A1 C1 b"],
    ["verify", "-n", "1", "--sui", "codet", "--max-len", "1"],
]


def _parsed_by_the_top_level_parser(argv):
    """The namespace (None on a usage error) and exit code given by
    parse_args on the whole argv and, for a valid argv, its handler."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return None, int(exc.code or 0)
    return args, args.func(args)


def _record_parses(monkeypatch):
    """The namespaces that every ArgumentParser.parse_known_args call
    returns from now on, in the order the calls return."""
    parsed = []
    real = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        parsed.append(result[0])
        return result

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    return parsed


@pytest.mark.parametrize(
    "argv", PARSE_TABLE, ids=lambda argv: " ".join(argv) or "empty"
)
def test_parsing_matches_the_top_level_parser(argv, monkeypatch, capsys):
    expected, code = _parsed_by_the_top_level_parser(argv)
    streams = capsys.readouterr()
    parsed = _record_parses(monkeypatch)
    assert run(argv) == code
    assert capsys.readouterr() == streams
    if expected is not None:
        assert vars(parsed[-1]) == vars(expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "-n", "1", "-w", "d a"],
        ["gen", "-n", "2", "--format", "json"],
        ["verify", "-n", "1", "--suite", "codet", "--max-len", "1"],
    ],
    ids=["nf", "gen", "verify"],
)
def test_a_command_is_parsed_once(argv, monkeypatch, capsys):
    parsed = _record_parses(monkeypatch)
    assert run(argv) == 0
    assert len(parsed) == 1
    assert parsed[0].command == argv[0]


# sha256 of each command's exact --format json stdout: a refactor that keeps
# these digests keeps the output byte for byte
GOLDEN_JSON = [
    (
        ["ball", "-n", "3", "--root", "a", "--radius", "3", "--dot", "-"],
        "230386af670d30b46bb6e2e647a81bbfd9d06c6cff9f0e601bc8029bfdcacbbc",
    ),
    (
        ["ball", "-n", "1", "--root", "c b d a", "--radius", "5", "--dot", "-"],
        "c7f2acbc98fca15b16b471ed57e109b8f5afb15d82d5cf15df9e237563d46079",
    ),
    (
        ["ball", "-n", "3", "--root", "A3 C2", "--radius", "4", "--dot", "-"],
        "042b4a72fde1f7838d02a2920088d53fb75b16c846321cb1862e309f7248c55e",
    ),
    (  # the identity root, named "1" in the vertex list and the edge sort
        ["ball", "-n", "2", "--radius", "3", "--dot", "-"],
        "778218a9f2d73e5cefa81c260186c8e8f7184dbc9cdbed34b98678fff3c7f679",
    ),
    (
        ["intersect", "-n", "1", "-p", "A1", "-q", "d"],
        "b32150f7ee763f9c25948e48dfbfe73b1f515a657726692a1290d02f7b2cbb87",
    ),
    (
        ["verify", "-n", "1", "--suite", "alignment"]
        + ["--max-len", "2", "--window", "4"],
        "26a0e6f82f70f1e1c09011772044bfcaca2b184d42de97ede1eff2367bd5ba06",
    ),
    (
        ["verify", "-n", "3", "--suite", "nf-oracle", "--max-len", "3"],
        "c16f6fb79319539a5875a2d3678925c8debc8c0af42c365a38feabd813755d46",
    ),
    (
        ["nf", "-n", "2", "-w", "a b a C2 d b c A1 B1 D1"],
        "4d83c96e5c48a4e17dcb23cadc96e5f13b1355985dbb18d9f0dd1becdde887d2",
    ),
    (
        ["obstruct", "-n", "3"],
        "aa3fc5499754fc592b204967cd7a439a1ea49402c79ba764caa780cc3f4890dc",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN_JSON,
    ids=[
        "ball",
        "ball-n1-r5",
        "ball-n3-r4",
        "ball-identity",
        "intersect",
        "alignment",
        "nf-oracle",
        "nf",
        "obstruct",
    ],
)
def test_golden_json_output(argv, digest, capsys):
    assert run(argv + ["--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# sha256 of the stdout of two alignment runs with divisibility planted to
# fail, so that hundreds of pairs mismatch, in text and as JSON: every pair
# at n = 1, max-len 2, and a seeded sample of 300 of them, whose mismatches
# come in the order of the draw
PLANTED_ALIGNMENT = [
    (
        ["verify", "-n", "1", "--suite", "alignment", "--max-len", "2"]
        + ["--samples", "4900"],
        "915d3a64630e7ea72a9b4d15c7f5cd08db4160e32b5017ffbc174e799283d09c",
        "88f3732ceec8ada68937edc86b89c783ebe32809674222cb7ec20ed471ed06dc",
    ),
    (
        ["verify", "-n", "1", "--suite", "alignment", "--max-len", "2"]
        + ["--window", "5", "--samples", "300", "--seed", "3"],
        "058a4349fb23a9cfad0a4399534264e74310177c0d693393f2e23fc703e6e5d5",
        "2e2df6dcc87710765d812e0fb4ee7df801c3b57ef3efd441a008a4f1c1ba8db3",
    ),
]


@pytest.mark.parametrize(
    "argv, text_digest, json_digest", PLANTED_ALIGNMENT, ids=["exhaustive", "sampled"]
)
def test_golden_alignment_output_under_a_planted_fault(
    argv, text_digest, json_digest, monkeypatch, capsys
):
    monkeypatch.setattr(ideals, "_left_divides_nf", lambda p, q, pres: None)
    for extra, digest in (([], text_digest), (["--format", "json"], json_digest)):
        assert run(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_golden_text_obstruct(capsys):
    # as GOLDEN_JSON, for the text certificate, whose step lines come from
    # certificate_text rather than to_dict
    assert run(["obstruct", "-n", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "f7a16ba73f8b0fc03ec8d229d8890c2e5ac432cacaacefd3b056e9e3d23fab98"
    )


def test_golden_json_output_with_warm_presentations(capsys):
    # the golden commands' n values interleave, so the second round reuses
    # presentations that other commands have used in between
    cli._built.cache_clear()
    for _ in range(2):
        for argv, digest in GOLDEN_JSON:
            assert run(argv + ["--format", "json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert cli._built.cache_info().misses == 3


# sha256 of the --format json stdout of two commands with many chunks to
# encode, as in GOLDEN_JSON
STREAMED_JSON = [
    (
        ["obstruct", "-n", "3"],
        "aa3fc5499754fc592b204967cd7a439a1ea49402c79ba764caa780cc3f4890dc",
    ),
    (
        ["gen", "-n", "2"],
        "ebb20e28521185afe05dfeb8b7f30ae80f7613491fc8bf52cd8892f1bcea227f",
    ),
]


class _Writes(io.StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_json_is_written_as_it_is_encoded(monkeypatch, capsys):
    # the document is written in parts, never as one whole string, and its
    # bytes stay; at n = 10,000 the certificate's 9 MB take five parts of
    # 65,536 pieces and a rest
    for argv, digest in STREAMED_JSON:
        assert run(argv + ["--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["obstruct", "-n", "10000", "--format", "json"]) == 0
    assert max(stdout.sizes) < len(stdout.getvalue()) // 4


def _fuzz_string(rng):
    alphabet = (
        ['"', "\\", "/", " ", "a", "Z", "0", "\x7f", "\u00e9", "\u4e2d", "\u2028"]
        + [chr(c) for c in range(32)]
        + ["\U0001f600", "\U0010ffff", "\ud800", "\udfff", "\udc00\ud800"]
    )
    return "".join(rng.choices(alphabet, k=rng.randint(0, 8)))


def _fuzz_value(rng, depth):
    # leaves only below depth 4, strings twice as often as the rest
    pick = rng.randrange(10 if depth < 4 else 6)
    if pick in (0, 1):
        return _fuzz_string(rng)
    if pick == 2:
        return rng.choice([0, -1, 2**64, -(2**100), rng.randint(-(10**6), 10**6)])
    if pick == 3:
        return rng.choice([True, False, None])
    if pick in (4, 5):
        return rng.choice(["", [], (), {}])
    items = [_fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    if pick == 6:
        return items
    if pick == 7:
        return tuple(items)
    return {_fuzz_string(rng): item for item in items}


def test_json_writer_matches_the_json_module():
    rng = random.Random(35)
    for _ in range(2000):
        doc = _fuzz_value(rng, 0)
        parts = []
        cli._write_json(doc, parts.append)
        assert "".join(parts) == json.JSONEncoder(indent=2).encode(doc)


def test_json_writer_keeps_the_json_module_on_subclasses():
    # json writes a str or int subclass as it writes the base type
    class Word(str):
        pass

    class Count(int):
        pass

    doc = {Word("w"): [Word("a"), Count(3), True], "d": {"k": Count(-4)}}
    parts = []
    cli._write_json(doc, parts.append)
    assert "".join(parts) == json.JSONEncoder(indent=2).encode(doc)


@pytest.mark.parametrize(
    "doc",
    [1.5, {"x": [0.0]}, {1: "a"}, [object()]],
    ids=["float", "nested-float", "int-key", "object"],
)
def test_json_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        cli._write_json(doc, lambda text: None)


def test_json_over_65536_pieces_to_stdout_and_output(monkeypatch, tmp_path):
    # 70,000 strings take 140,000 pieces: three writes, then the newline
    result = [f"w{i}" for i in range(70000)]
    expected = json.JSONEncoder(indent=2).encode(
        {"command": "gen", "n": 1, "result": result, "violations": []}
    ) + "\n"
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    args = argparse.Namespace(format="json", n=1, output=None)
    cli._emit(args, "gen", result, [], None)
    assert stdout.getvalue() == expected
    assert len(stdout.sizes) == 4
    target = tmp_path / "out.json"
    args.output = str(target)
    cli._emit(args, "gen", result, [], None)
    assert target.read_bytes() == expected.encode()


@pytest.mark.parametrize(
    "argv",
    [["obstruct", "-n", "3", "--format", "json"], ["gen", "-n", "2"]],
    ids=["json", "text"],
)
def test_output_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    assert run(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "out"
    assert run(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == printed.encode()
