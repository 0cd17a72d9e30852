import os
import re
import subprocess
import sys

import pytest

import lmtool
from lmtool.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse(capsys):
    code, out = run(capsys, "parse", r"\x. x")
    assert code == 0 and out.strip() == r"\x1. x1"


def test_canon_bmc_example(capsys):
    code, out = run(capsys, "canon", "(mu 'a. ['a]x) y z")
    assert code == 0
    assert out.strip() == "mu 'a3. (['a1]x)['a3/'a1\\y . z . #]"


def test_equiv_certificate(capsys):
    code, out = run(
        capsys, "equiv", "mu 'b. (['a]x)['b/'a \\ y . #]", "mu 'b. ['b]x y"
    )
    assert code == 0
    assert "EQUIVALENT" in out and "lin" in out


def test_equiv_inconclusive(capsys):
    code, out = run(capsys, "equiv", "x", "y", "--max-states", "40", "--max-depth", "3")
    assert code == 1 and "NOT-WITHIN-BOUNDS" in out


def test_typecheck(capsys):
    code, out = run(
        capsys,
        "typecheck",
        r"\x:(iA->iB)->iA. mu 'a:iA. ['a]x (\y:iA. mu 'd:iB. ['a]y)",
    )
    assert code == 0 and "((iA->iB)->iA)->iA" in out


def test_typecheck_env_and_failure(capsys):
    code, out = run(capsys, "typecheck", "x y", "--env", "x:iA->iB,y:iA")
    assert code == 0 and "iB" in out
    code, out = run(capsys, "typecheck", "x y", "--env", "x:iA,y:iA")
    assert code == 1 and "ILL-TYPED" in out


@pytest.mark.parametrize("command", ["typecheck", "ppn"])
@pytest.mark.parametrize(
    "env, message",
    [
        (":iA", "argument --env: item ':iA' has no name"),
        (" : iA", "argument --env: item ': iA' has no name"),
        ("x", "argument --env: item 'x' has no ':type'"),
        ("x:iA,y", "argument --env: item 'y' has no ':type'"),
        ("x:iA,x:iB", "argument --env: item 'x:iB' repeats 'x'"),
        ("'a:iA, y:iA, 'a : iA", "argument --env: item \"'a : iA\" repeats \"'a\""),
        ("x:iA(", "argument --env: item 'x:iA(': trailing input '(' at line 1, column 3"),
        ("x:" + "(" * 5000 + "iA" + ")" * 5000, "argument --env: the type of 'x' is too deep"),
    ],
)
def test_bad_env_items_exit_with_one_error_line_naming_the_item(capsys, command, env, message):
    with pytest.raises(SystemExit) as exc:
        main([command, "x", "--env", env])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].endswith(message)


def test_env_items_may_be_spaced_and_empty(capsys):
    env = " x : iA , , 'a:iA,"
    code, out = run(capsys, "typecheck", "['a]x", "--sort", "command", "--env", env)
    assert code == 0 and "x:iA" in out and "'a:iA" in out


def test_ppn_dot(capsys, tmp_path):
    out_file = tmp_path / "net.dot"
    code, out = run(capsys, "ppn", r"\x:iA. x", "--dot", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("digraph")


def test_ppn_dot_to_a_missing_directory_exits_cleanly(capsys, tmp_path):
    out_file = tmp_path / "missing" / "net.dot"
    code = main(["ppn", r"\x:iA. x", "--dot", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(out_file) in captured.err


def test_reduce_budget(capsys):
    code, out = run(capsys, "reduce", r"(\x. x x) (\x. x x)", "--budget", "40")
    assert code == 1 and "BUDGET-EXHAUSTED" in out


@pytest.mark.parametrize("nf", ["mult", "full"])
def test_ppn_budget_exhausted(capsys, monkeypatch, nf):
    from lmtool.ppn import rewrite

    monkeypatch.setattr(rewrite, "_BUDGET", 1)
    code, out = run(capsys, "ppn", "--nf", nf, "--env", "y:iA", r"(\x:iA. x) y")
    assert code == 1 and out == "BUDGET-EXHAUSTED\n"


def test_simcheck_names_a_step_out_of_budget(capsys, monkeypatch):
    from lmtool.ppn import rewrite

    monkeypatch.setattr(rewrite, "_BUDGET", 1)
    code, out = run(capsys, "simcheck", "--cases", "3", "--seed", "-7")
    lines = out.splitlines()
    assert code == 1 and lines[-2:] == ["3 steps checked, 0 violations, 3 out of budget",
                                        "BUDGET-EXHAUSTED"]
    assert len(lines) == 5 and all(line.startswith("budget exhausted (") for line in lines[:3])


def test_sigma_listing(capsys):
    code, out = run(capsys, "sigma", "(mu 'a. ['a]x) y")
    assert code == 0 and "sigma8" in out


def test_meaningful_listing(capsys):
    code, out = run(capsys, "meaningful", "(['a](x (mu 'b. ['a]y)))['g/'a\\z . #]")
    assert code == 0 and "R!=1" in out


def test_gen_deterministic(capsys):
    _, out1 = run(capsys, "gen", "--typed", "--cases", "3", "--seed", "9")
    _, out2 = run(capsys, "gen", "--typed", "--cases", "3", "--seed", "9")
    assert out1 == out2


def test_property_drivers_pass(capsys):
    code, out = run(capsys, "bisim-check", "--cases", "6", "--seed", "1")
    assert code == 0 and out.strip().endswith("PASS")
    summary = out.strip().splitlines()[-2]
    m = re.fullmatch(
        r"6 pairs, (\d+) redex matches, 0 violations, (\d+) searches"
        r" \((\d+) not within bounds\), (\d+) reducts searched again per candidate,"
        r" (\d+) expansions from cache,"
        r" (\d+) node rewrite lists computed, (\d+) served from memo",
        summary,
    )
    assert m, summary
    matches, searches, failed, retries, hits, computed, served = map(int, m.groups())
    # a reduct that is not searched again per candidate gets at most one
    # search, so on a passing run without retries every search succeeded
    assert matches > 0 and hits > 0 and retries == 0
    assert failed == 0 and 0 < searches <= matches
    assert computed > 0 and served > 0
    code, out = run(capsys, "confluence-check", "--cases", "8", "--seed", "1")
    assert code == 0 and out.strip().endswith("PASS")
    code, out = run(capsys, "simcheck", "--cases", "10", "--seed", "1")
    assert code == 0 and out.strip().endswith("PASS")


def test_equiv_prints_stop_reason(capsys):
    code, out = run(capsys, "equiv", "x", "y")
    assert code == 1 and out.strip() == "NOT-WITHIN-BOUNDS (free identifiers differ)"
    code, out = run(capsys, "equiv", "x y", "y x", "--ren", "--max-states", "40", "--max-depth", "3")
    assert code == 1 and out.strip() == "NOT-WITHIN-BOUNDS (depth bound)"


def test_equiv_stats_line_comes_before_the_unchanged_output(capsys):
    cases = [
        ["mu 'b. (['a]x)['b/'a \\ y . #]", "mu 'b. ['b]x y"],
        ["x y", "y x", "--ren", "--max-states", "40", "--max-depth", "3"],
        ["x", "y"],
    ]
    stat = re.compile(
        r"search: (\d+) states, (\d+) expanded, (\d+) rewrites built,"
        r" (\d+) node rewrite lists computed, (\d+) served from memo"
    )
    counts = []
    for argv in cases:
        code, plain = run(capsys, "equiv", *argv)
        code2, out = run(capsys, "equiv", *argv, "--stats")
        first, rest = out.split("\n", 1)
        assert code2 == code and rest == plain
        states, expanded, built, computed, served = map(int, stat.fullmatch(first).groups())
        # every state past the two ends came from one built rewrite, and
        # every expanded state has a root whose rewrites were looked up
        assert expanded <= built and max(states - 2, 0) <= built
        assert expanded <= computed + served
        counts.append((states, expanded, built, computed, served))
    assert counts[1][1] > 1 and counts[1][4] > 0
    assert counts[2] == (0, 0, 0, 0, 0)  # free identifiers differ: no search


@pytest.mark.parametrize(
    "argv, message",
    [
        (["step", "x", "--path", "0"], "error: child index 0 out of range at Var"),
        (["step", "f a b", "--path", "-1"], "error: child index -1 out of range at App"),
        (["step", "x", "--path", "abc"], "error: not a dotted list of child indices: 'abc'"),
        (["step", r"(\x.x) y", "--path", "1", "--tag", "B"], "error: B expects an application"),
        (["step", r"(\x.x) y", "--path", "", "--tag", "Nlin"], "error: lm_step does not fire Nlin"),
        (["reduce", "x", "--budget", "0"], "error: budget must be positive"),
        (["sigma", "x[y\\z]"], "error: object contains explicit operators"),
    ],
)
def test_bad_step_and_reduce_input_exits_cleanly(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simcheck", "--cases", "-1"], "argument --cases: must be at least 1, got -1"),
        (["bisim-check", "--cases", "0"], "argument --cases: must be at least 1, got 0"),
        (["confluence-check", "--cases", "0"], "argument --cases: must be at least 1, got 0"),
        (["gen", "--cases", "-3"], "argument --cases: must be at least 1, got -3"),
        # every bisim-check pair comes from a template of fixed size
        (["bisim-check", "--size", "3"], "error: unrecognized arguments: --size 3"),
        (["confluence-check", "--size", "-2"], "argument --size: must be at least 0, got -2"),
        (["gen", "--size", "-1"], "argument --size: must be at least 0, got -1"),
        (["confluence-check", "--max-states", "-1"],
         "argument --max-states: must be at least 0, got -1"),
        (["equiv", "x", "x", "--max-states", "-1"],
         "argument --max-states: must be at least 0, got -1"),
        (["equiv", "x", "x", "--max-depth", "-1"],
         "argument --max-depth: must be at least 0, got -1"),
        (["gen", "--cases", "many"], "argument --cases: invalid int value: 'many'"),
    ],
)
def test_counts_out_of_range_exit_with_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].endswith(message)


def test_bisim_check_help_explains_the_cases_split(capsys):
    with pytest.raises(SystemExit):
        main(["bisim-check", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    assert "at least one each" in usage and "takes no --size" in usage
    code, out = run(capsys, "bisim-check", "--cases", "2", "--seed", "1")
    assert code == 0 and out.strip().splitlines()[-2].startswith("6 pairs, ")


@pytest.mark.parametrize("command", ["simcheck", "bisim-check", "confluence-check", "gen"])
def test_sort_is_only_taken_by_commands_that_parse_an_object(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--sort", "stack"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: lmtool ")
    assert captured.err.rstrip().endswith("error: unrecognized arguments: --sort stack")


def test_ppn_of_a_stack_exits_cleanly(capsys):
    # a stack has no net without a result type
    code = main(["ppn", "x . #", "--sort", "stack", "--env", "x:iA"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a stack has no proof net without a result type\n"


def test_deep_parentheses_exit_cleanly(capsys):
    code = main(["parse", "(" * 1200 + "x" + ")" * 1200])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.strip() == "error: input too deep"


def test_long_application_spine_exits_cleanly(capsys):
    code = main(["canon", "f " + " ".join(f"a{i}" for i in range(3000))])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.strip() == "error: input too deep"


def test_output_does_not_depend_on_the_hash_seed():
    # free-identifier sets are frozensets, whose iteration order follows the
    # hash seed; every walk over them must be sorted for runs to repeat.  The
    # ren search enumerates subsets of free-name occurrences and keys its
    # states by canonical keys that mix int and str tokens.  Net isomorphism
    # colours nodes by hash() of tuples holding strings, and the DOT output
    # of a normalized net with nested boxes follows its node and wire ids.
    # The redex engine keeps a frozenset of tags per mode, but must list and
    # fire redexes in scan order.
    from lmtool.drivers import sigma_pair
    from lmtool.syntax import print_object

    src = os.path.dirname(os.path.dirname(os.path.abspath(lmtool.__file__)))
    lhs, rhs = sigma_pair(0, "sigma4", size=3)
    # fires B, M, S and non-linear stack replacements (R!=1)
    callcc = r"(\x. mu 'a. ['a](x (mu 'd. ['a]x))) (\y. y) w"
    commands = [
        ["confluence-check", "--cases", "12", "--seed", "3"],
        ["bisim-check", "--cases", "12", "--seed", "3"],
        ["sigma", "['c](mu 'a. ['b](x (mu 'd. ['a]y)))"],
        ["reduce", "--mode", "refined", "--trace", callcc],
        ["meaningful", callcc],
        ["equiv", "--ren", "--stats", print_object(lhs), print_object(rhs)],
        ["simcheck", "--seed", "99", "--cases", "60"],
        ["ppn", "--nf", "full", "--env", "f:iA->iA->iB,g:iC->iA,y:iC", r"(\x:iA. f x x) (g y)"],
    ]
    for argv in commands:
        outs = set()
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "lmtool.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1, argv


# a mu-bound name free in the argument, and replacements whose bound name
# is free in their stack
_CAPTURE_INPUTS = [
    r"(mu 'a. (['o]x)['a/'o\#]) (mu 'd. ['a]y)",
    r"(['e]z)['f/'e\ (mu 'g. ['e]w) . #]",
    r"(['o](mu 'd. (['e]z)['f/'e\(mu 'g. ['e]w) . #]))['n/'o\v . #]",
]
_HOSTILE = [
    "(\\x. ", "x)", "mu 'a. [", "x[y\\", "\\x:iA->. x", "x . y . #", "#",
    "(" * 5000 + "x" + ")" * 5000, *_CAPTURE_INPUTS,
]
_OBJECT_COMMANDS = ["parse", "canon", "step", "reduce", "meaningful", "sigma", "typecheck", "ppn"]
_SWEEP = (
    [[command, text] for command in _OBJECT_COMMANDS for text in _HOSTILE]
    + [["equiv", text, text] for text in _HOSTILE]
    + [
        ["equiv", _CAPTURE_INPUTS[0], _CAPTURE_INPUTS[1]],
        ["equiv", "x", "x", "--max-states", "0"],
        ["ppn", "x . #", "--sort", "stack", "--env", "x:iA"],
        ["ppn", "--nf", "full", "--env", "y:iA", r"(\x:iA. x) y"],
        ["reduce", "--budget", "1", r"(\x. x x) (\x. x x)"],
        ["reduce", "--mode", "refined", "--budget", "1", _CAPTURE_INPUTS[0]],
        ["step", "--path", "", "--tag", "W", _CAPTURE_INPUTS[1]],
        ["canon", "--sort", "stack", _CAPTURE_INPUTS[1]],
        ["simcheck", "--cases", "1", "--seed", "-7"],
        ["bisim-check", "--cases", "1", "--seed", "-7"],
        ["confluence-check", "--cases", "1", "--max-states", "0"],
        ["gen", "--typed", "--size", "0"],
    ]
)


@pytest.mark.parametrize("argv", _SWEEP, ids=range(len(_SWEEP)))
def test_no_input_ends_in_a_traceback(capsys, monkeypatch, argv):
    # every subcommand on malformed, too deep and capturing input, and
    # reduction and cut elimination with a budget of one step: each ends in
    # an exit code, never in an exception
    from lmtool.ppn import rewrite

    if "--nf" in argv or argv[0] == "simcheck":
        monkeypatch.setattr(rewrite, "_BUDGET", 1)
    assert main(argv) in (0, 1, 2)
