import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fracdim.cli import build_parser, main
from fracdim.families import generate
from fracdim.graph import ParseError, format_family_file, parse_family_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dimf_spec_petersen(capsys):
    code, out, _ = run(capsys, "dimf", "--spec", "petersen")
    assert code == 0
    assert out.strip() == "5/3"


def test_dimf_spec_cycle4(capsys):
    code, out, _ = run(capsys, "dimf", "--spec", "cycle(4)")
    assert code == 0
    assert out.strip() == "2"


def test_dimf_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\n0 0\n")
    code, _, err = run(capsys, "dimf", str(bad))
    assert code == 2
    assert "self-loop at line 2" in err


def test_dimf_file_input(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("n 4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "dimf", str(path))
    assert code == 0 and out.strip() == "1"


def test_dimf_json_round_trip(capsys):
    code, out, _ = run(capsys, "dimf", "--spec", "cycle(5)", "--assignment", "--json")
    assert code == 0
    data = json.loads(out)
    assert Fraction(data["value"]) == Fraction(5, 4)
    assert [Fraction(v) for v in data["assignment"]] == [Fraction(1, 4)] * 5


def test_dimf_decimal_marked_approximate(capsys):
    code, out, _ = run(capsys, "dimf", "--spec", "petersen", "--decimal", "3")
    assert code == 0
    assert "1.667 (approximate)" in out


def test_sdimf_fig1a(capsys):
    code, out, _ = run(capsys, "sdimf", "--spec", "fig1a")
    assert code == 0 and out.strip() == "3/2"


def test_sdimf_with_complement(capsys):
    code, out, _ = run(capsys, "sdimf", "--spec", "path(4)", "--with-complement")
    assert code == 0 and out.strip() == "4/3"


def test_sdimf_bounds(capsys):
    code, out, _ = run(capsys, "sdimf", "--spec", "star_family(6)", "--bounds")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    assert "sdf 3" in lines and "sd 5" in lines and "max_dimf 5/2" in lines


def test_dim_and_sdim(capsys):
    code, out, _ = run(capsys, "dim", "--spec", "cycle(8)")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "sdim", "--spec", "star_family(6)")
    assert code == 0 and out.strip() == "5"


def test_twins(capsys):
    code, out, _ = run(capsys, "twins", "--spec", "complete(4)")
    assert code == 0 and out.strip() == "0 1 2 3"


def test_profile(capsys):
    code, out, _ = run(capsys, "profile", "--spec", "star(6)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == 5 and data["ex"] == 1 and data["ex1"] == 0


def test_profile_rejects_cycles(capsys):
    code, _, err = run(capsys, "profile", "--spec", "cycle(5)")
    assert code == 2 and "tree" in err


def test_gen_round_trips_through_sdimf(tmp_path, capsys):
    out_path = tmp_path / "fam.txt"
    code, _, _ = run(capsys, "gen", "--spec", "fig1a", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "sdimf", str(out_path))
    assert code == 0 and out.strip() == "3/2"


def test_gen_single_graph(capsys):
    code, out, _ = run(capsys, "gen", "--spec", "path(3)")
    assert code == 0
    assert out == "n 3\n0 1\n1 2\n"


def test_family_file_parsing():
    fam = parse_family_file("n 3\ngraph A\n0 1\n1 2\ngraph B\n0 2\n")
    assert len(fam.members) == 2 and fam.names == ("A", "B")
    with pytest.raises(ParseError, match="line 3"):
        parse_family_file("n 3\ngraph A\n0 0\n")
    with pytest.raises(ParseError, match="graph"):
        parse_family_file("n 3\n0 1\n")
    round_trip = parse_family_file(format_family_file(generate("fig3")))
    assert round_trip.members == generate("fig3").members


def test_family_file_block_line_may_use_a_tab(tmp_path, capsys):
    text = "n 3\ngraph\tA\n0 1\n1 2\ngraph\tB\n0 2\n"
    assert parse_family_file(text).names == ("A", "B")
    path = tmp_path / "fam.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "sdimf", str(path))
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dimf"], "produces a family"),
        (["dim"], "produces a family"),
        (["twins"], "produces a family"),
        (["profile"], "produces a family"),
        (["sdimf", "--with-complement"], "single-graph"),
        (["sdim", "--with-complement"], "single-graph"),
    ],
)
def test_family_input_rejected_where_one_graph_is_needed(tmp_path, capsys, argv, message):
    path = tmp_path / "fam.txt"
    path.write_text("n 3\ngraph A\n0 1\n1 2\ngraph B\n0 2\n")
    for source in ([str(path)], ["--spec", "fig1a"]):
        code, out, err = run(capsys, argv[0], *source, *argv[1:])
        assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("command, hint", [
    ("dimf", "use sdimf/sdim"),
    ("dim", "use sdimf/sdim"),
    ("twins", "twins takes one graph"),
    ("profile", "profile takes one graph"),
])
def test_family_rejection_hint_fits_the_command(capsys, command, hint):
    code, out, err = run(capsys, command, "--spec", "star_family(5)")
    assert code == 2 and out == ""
    assert err == f"error: spec 'star_family(5)' produces a family; {hint}\n"


@pytest.mark.parametrize(
    "source, message",
    [
        (["one.txt", "--spec", ""], "give either an input file or --spec, not both"),
        (["", "--spec", "petersen"], "give either an input file or --spec, not both"),
        (["--spec", ""], "expected a name or integer, got the end of the spec"),
    ],
    ids=["file and empty spec", "empty file name and spec", "empty spec"],
)
def test_empty_spec_or_file_name_counts_as_given(tmp_path, capsys, source, message):
    (tmp_path / "one.txt").write_text("n 4\n0 1\n1 2\n2 3\n")
    source = [str(tmp_path / a) if a == "one.txt" else a for a in source]
    code, out, err = run(capsys, "dimf", *source)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def _stdin(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def test_dimf_reads_an_edge_list_from_stdin(monkeypatch, capsys):
    _stdin(monkeypatch, "n 4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run(capsys, "dimf", "-")
    assert code == 0 and out.split()[0] == "2"


def test_sdimf_reads_a_generated_family_from_stdin(monkeypatch, capsys):
    code, family, _ = run(capsys, "gen", "--spec", "fig1a")
    assert code == 0
    _stdin(monkeypatch, family)
    code, out, _ = run(capsys, "sdimf", "-")
    assert code == 0 and out.split()[0] == "3/2"


def test_dimf_rejects_a_family_on_stdin(monkeypatch, capsys):
    _stdin(monkeypatch, "n 3\ngraph A\n0 1\n1 2\ngraph B\n0 2\n")
    code, out, err = run(capsys, "dimf", "-")
    assert code == 2 and out == "" and "produces a family" in err


@pytest.mark.parametrize("name", ["missing.txt", "."])
def test_unreadable_input_exits_2(tmp_path, capsys, name):
    code, out, err = run(capsys, "dimf", str(tmp_path / name))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_deeply_nested_spec_exits_2_without_traceback(capsys):
    spec = "family_of(" * 1000 + "path(3)" + ")" * 1000
    with pytest.raises(ValueError, match="nests deeper"):
        generate(spec)
    code, out, err = run(capsys, "sdimf", "--spec", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--spec", "path(3)", "-o", str(tmp_path / "no" / "x.txt"))
    assert code == 2 and err.startswith("error: ")


def test_sdimf_bounds_builds_each_member_system_once(monkeypatch, capsys):
    import fracdim.dimension
    import fracdim.graph
    import fracdim.lp
    import fracdim.metric
    import fracdim.oracles

    calls = {}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    fam = generate("star_family(6)")
    # Every module that imports the distance engine counts into one key.
    engine = counting("distances", fracdim.graph._ball_layers)
    for module in (fracdim.graph, fracdim.metric, fracdim.oracles):
        monkeypatch.setattr(module, "_ball_layers", engine)
    monkeypatch.setattr(fracdim.dimension, "solve_covering_lp",
                        counting("dimension_lp", fracdim.dimension.solve_covering_lp))
    monkeypatch.setattr(fracdim.dimension, "joint_cover_sets",
                        counting("joint_cover_sets", fracdim.dimension.joint_cover_sets))
    monkeypatch.setattr(fracdim.lp.CoveringLp, "__init__",
                        counting("CoveringLp", fracdim.lp.CoveringLp.__init__))
    k = len(fam)
    # (argv, first stdout line, distance passes, LP solves in dimension.py).
    # --bounds: one distance pass per member, k member solves plus one pooled
    # solve.
    cases = [
        (("sdimf", "--spec", "star_family(6)", "--bounds"), "3", k, k + 1),
        (("sdimf", "--spec", "star_family(6)"), "3", k, 1),
        (("sdim", "--spec", "star_family(6)"), "5", k, 0),
        (("dimf", "--spec", "petersen"), "5/3", 1, 1),
        (("dim", "--spec", "petersen"), "3", 1, 0),
    ]
    for argv, first, distances, solves in cases:
        calls.update(distances=0, dimension_lp=0, joint_cover_sets=0, CoveringLp=0)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[0] == first, argv
        # The resolver masks reach the LP and the hitting set as they are:
        # no set-valued instance and no pooled system built on the way.
        expected = {"distances": distances, "dimension_lp": solves, "joint_cover_sets": 0, "CoveringLp": 0}
        assert calls == expected, argv


ROSTER = [
    line.split()
    for line in (Path(__file__).parent / "certificate_roster.txt").read_text().splitlines()
    if not line.startswith("#")
]


@pytest.mark.parametrize(
    "digest, argv",
    [(digest, argv) for digest, *argv in ROSTER],
    ids=[
        " ".join(a for a in argv if a != "--spec").removesuffix(" --json --assignment --certificate")
        for _, *argv in ROSTER
    ],
)
def test_certificate_output_is_pinned(capsys, digest, argv):
    # CLI output byte for byte: the values, assignments and dual certificates
    # of the unseeded fractional benchmark requests, and the text and JSON
    # output of every graph command.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # main() parses every call with one parser; each pair's second call
    # would see the first call's list, flag or input if it leaked.
    assert build_parser() is build_parser()
    pairs = [
        (("verify", "prop15_cycles", "--budget", "n=5"), ("verify", "prop15_cycles")),
        (("sdimf", "--spec", "star_family(6)", "--bounds"), ("sdimf", "--spec", "star_family(6)")),
        (("sdimf", "--spec", "path(4)", "--with-complement"), ("sdimf", "--spec", "fig1a")),
    ]
    outs = [run(capsys, *argv) for pair in pairs for argv in pair]
    assert [code for code, _, _ in outs] == [0] * 6
    verify_n5, verify, bounds, plain, pair, fig1a = (out.splitlines() for _, out, _ in outs)
    assert verify_n5[-1].endswith("3/3 passed") and verify[-1].endswith("10/10 passed")
    assert len(bounds) == 7 and plain == ["3"]
    assert pair == ["4/3"] and fig1a == ["3/2"]


def test_spec_producing_family_rejected_by_dimf(capsys):
    code, _, err = run(capsys, "dimf", "--spec", "fig1a")
    assert code == 2 and "family" in err


def test_with_complement_rejects_family_specs(capsys):
    code, _, err = run(capsys, "sdimf", "--spec", "fig1a", "--with-complement")
    assert code == 2 and "single-graph" in err


def test_sdim_with_complement(capsys):
    code, out, _ = run(capsys, "sdim", "--spec", "path(4)", "--with-complement")
    assert code == 0 and out.strip() == "2"


def test_identical_invocations_identical_output(capsys):
    _, first, _ = run(capsys, "sdimf", "--spec", "fig2", "--assignment", "--certificate")
    _, second, _ = run(capsys, "sdimf", "--spec", "fig2", "--assignment", "--certificate")
    assert first == second


def test_verify_known_suite(capsys):
    code, out, _ = run(capsys, "verify", "example1_figures")
    assert code == 0
    assert "5/5 passed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "example1_figures", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["suite"] == "example1_figures"
    assert len(data[0]["checks"]) == 5


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize("suites, message", [
    (["all", "example1_figures"], "suite 'all' must stand alone"),
    (["example1_figures", "nosuch"], "unknown suite 'nosuch'"),
], ids=["all not alone", "unknown after a known suite"])
def test_verify_rejects_bad_suite_names_before_running_any(capsys, suites, message):
    code, out, err = run(capsys, "verify", *suites)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_verify_budget(capsys):
    code, out, _ = run(capsys, "verify", "prop15_cycles", "--budget", "n=6")
    assert code == 0
    assert "4/4 passed" in out


def test_verify_unknown_budget_key_exits_2(capsys):
    code, out, err = run(capsys, "verify", "prop15_cycles", "--budget", "nn=3")
    assert code == 2 and out == "" and "unknown budget key 'nn'" in err


@pytest.mark.parametrize("entry", ["n=abc", "n=1e3"])
def test_verify_non_integer_budget_value_exits_2(capsys, entry):
    code, out, err = run(capsys, "verify", "prop12_paths", "--budget", entry)
    assert code == 2 and out == ""
    assert err == f"error: budget entries look like n=12, got '{entry}'\n"


def test_verify_negative_budget_count_exits_2(capsys):
    # a suite that checked nothing must not report a pass
    code, out, err = run(capsys, "verify", "thm1_closed_forms", "--budget", "trees=-2")
    assert code == 2 and out == ""
    assert err.strip() == "error: budget trees must be >= 0, got -2"


def test_verify_all_runs_every_suite_in_order(capsys):
    code, out, _ = run(
        capsys, "verify", "all",
        "--budget", "samples=2", "--budget", "trees=2",
        "--budget", "n=6", "--budget", "exhaustive_n=3",
    )
    assert code == 0
    from fracdim.harness import SUITE_ORDER

    seen = [line.split()[1] for line in out.splitlines() if line.startswith("suite ")]
    assert seen == list(SUITE_ORDER)


def test_verify_all_text_is_pinned(capsys):
    # The stdout of `fracdim verify all` at the default budget, byte for byte.
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "a12ffdbe5d512aceb4d1229aba347c8d4e823b3be35f0e1ada93221e10d7baee"


@pytest.mark.parametrize(
    "argv",
    [
        ["dimf", "--spec", "petersen"],  # fits the buffer: fails at the final flush
        ["verify", "thm1_closed_forms", "--json"],  # over 8 KiB: fails mid-print
    ],
)
def test_closed_stdout_exits_quietly(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # block-buffered stdout
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fracdim", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""


def test_decimal_digits_come_from_the_exact_value(capsys):
    code, out, _ = run(capsys, "dimf", "--spec", "petersen", "--decimal", "40")
    assert code == 0
    assert "decimal 1." + "6" * 39 + "7 (approximate)" in out
    code, out, _ = run(capsys, "dimf", "--spec", "petersen", "--decimal", "5000")
    assert code == 0 and "decimal 1." + "6" * 4999 + "7 (approximate)" in out
    code, out, _ = run(capsys, "sdimf", "--spec", "fig1a", "--decimal", "0", "--json")
    assert code == 0 and json.loads(out)["decimal_approx"] == "2"  # 3/2, ties to even


def test_negative_decimal_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dimf", "--spec", "petersen", "--decimal", "-1"])
    assert exc.value.code == 2
    assert "--decimal" in capsys.readouterr().err
