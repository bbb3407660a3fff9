import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import malcev.cli as cli
from malcev.cayley import CayleyBall
from malcev.congruence import CapExceeded
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


def test_verify_alignment_json_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("MALCEV_SEED", "42")
    code = run(
        [
            "verify", "-n", "1", "--suite", "alignment", "--format", "json",
            "--max-len", "1", "--window", "3", "--samples", "5",
        ]
    )
    doc = json.loads(out_of(capsys)[0])
    assert code == 0
    assert doc["result"]["seed"] == 42
    assert doc["result"]["ok"] is True
    assert doc["result"]["sampled"] == 5


def test_verify_alignment_bad_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("MALCEV_SEED", "abc")
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "1"]
    assert run(argv + ["--window", "3", "--samples", "5"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: MALCEV_SEED must be an integer, got 'abc'\n"


def test_verify_seed_env_read_only_by_alignment(monkeypatch, capsys):
    monkeypatch.setenv("MALCEV_SEED", "abc")
    for suite in ("nf-oracle", "codet"):
        assert run(["verify", "-n", "1", "--suite", suite, "--max-len", "1"]) == 0
        assert out_of(capsys)[0].splitlines()[-1] == "violations: 0"


def test_verify_seed_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("MALCEV_SEED", "42")
    run(
        [
            "verify", "-n", "1", "--suite", "alignment", "--format", "json",
            "--max-len", "1", "--window", "3", "--samples", "5", "--seed", "7",
        ]
    )
    assert json.loads(out_of(capsys)[0])["result"]["seed"] == 7


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

    monkeypatch.setattr(cli, "certificate_text", boom)
    assert run(["obstruct", "-n", "3", "--format", "json"]) == 0
    assert json.loads(out_of(capsys)[0])["command"] == "obstruct"


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


def test_oracle_window_over_cap_exits_2(capsys):
    # a one-letter root has sum(8^k, k <= 7) = 2,396,745 seeds in window 8
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "2"]
    argv += ["--window", "8"]
    assert run(argv + ["--samples", "4900"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: window 8 is too large for the oracle")
    assert "2396745 seed words" in err
    assert run(argv + ["--samples", "0"]) == 0  # no oracle, no ideal


def test_oversized_window_refused_without_counting(capsys):
    # summing 8^k up to k = 20000 would take seconds and then fail to print
    argv = ["verify", "-n", "1", "--suite", "alignment", "--max-len", "1"]
    start = time.perf_counter()
    code = run(argv + ["--window", "20000"])
    elapsed = time.perf_counter() - start
    out, err = out_of(capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: window 20000 is too large for the oracle")
    assert "more than 2^64 seed words" in err
    assert elapsed < 0.5


def test_ball_exports_dot_only_when_asked(monkeypatch, capsys):
    def boom(ball):
        raise RuntimeError("export_dot called without --dot")

    monkeypatch.setattr(cli, "export_dot", boom)
    assert run(["ball", "-n", "1", "--radius", "2", "--root", "d"]) == 0
    assert out_of(capsys)[0] == "root: d\nradius: 2\nvertices: 70\nedges: 72"
    assert run(["ball", "-n", "1", "--radius", "2", "--format", "json"]) == 0
    result = json.loads(out_of(capsys)[0])["result"]
    assert "dot" not in result and result["dot_path"] is None


def test_ball_builds_no_edge_list(monkeypatch, capsys):
    # counts and DOT come from the sources and their steps; the derived edge
    # list is for tests and library callers only
    def boom(ball):
        raise RuntimeError("edge list built")

    monkeypatch.setattr(CayleyBall, "edges", property(boom))
    for dot in ([], ["--dot", "-"]):
        for fmt in ("text", "json"):
            argv = ["ball", "-n", "1", "--radius", "2", "--format", fmt, *dot]
            assert run(argv) == 0, argv
            assert out_of(capsys)[1] == ""


def test_invariant_violation_exits_3(monkeypatch, capsys):
    def boom(p, q, pres):
        raise AlignmentViolation("planted")

    monkeypatch.setattr(cli, "intersect_principal", boom)
    assert run(["intersect", "-n", "1", "-p", "a", "-q", "b"]) == 3
    _, err = out_of(capsys)
    assert "invariant violation: planted" in err


def test_cap_exceeded_exits_4(monkeypatch, capsys):
    def boom(pres, max_len):
        raise CapExceeded("planted")

    monkeypatch.setattr(cli, "partition_agreement", boom)
    assert run(["verify", "-n", "1", "--suite", "nf-oracle", "--max-len", "1"]) == 4
    _, err = out_of(capsys)
    assert "resource limit: planted" in err
    assert "invariant violation" not in err


def test_cap_exceeded_names_the_command(monkeypatch, capsys):
    def boom(*args):
        raise CapExceeded("planted")

    monkeypatch.setattr(cli, "partition_agreement", boom)
    assert run(["verify", "-n", "2", "--suite", "nf-oracle", "--max-len", "1"]) == 4
    assert out_of(capsys) == (
        "", "resource limit: planted (verify -n 2 --suite nf-oracle --max-len 1)\n"
    )
    monkeypatch.setattr(cli, "build_ball", boom)
    assert run(["ball", "-n", "1", "--radius", "1"]) == 4
    assert out_of(capsys)[1] == "resource limit: planted (ball -n 1)\n"


def test_memory_error_exits_4(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_alignment", boom)
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
    real = cli.verify_alignment

    def planted(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, non_principal=plant(report.non_principal))

    argv = ["verify", "-n", str(n), "--suite", "alignment", "--max-len", "2"]
    argv += ["--samples", "0"]
    assert run(argv) == 0
    out_of(capsys)
    monkeypatch.setattr(cli, "verify_alignment", planted)
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
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN_JSON,
    ids=["ball", "ball-n1-r5", "intersect", "alignment", "nf-oracle", "nf"],
)
def test_golden_json_output(argv, digest, capsys):
    assert run(argv + ["--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


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
