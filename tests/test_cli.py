import ast
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ccelab import Digraph
from ccelab.fileformats import parse_digraph, serialize_digraph


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ccelab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "witness.digraph").write_text(
        "digraph 4\n0 -> 3\n1 -> 3\n2 -> 0\n2 -> 1\n2 -> 3\n"
    )
    (tmp_path / "square.digraph").write_text(
        "digraph 4\n0 -> 1\n0 -> 2\n1 -> 3\n2 -> 3\n"
    )
    (tmp_path / "twocycle.digraph").write_text("digraph 2\n0 -> 1\n1 -> 0\n")
    (tmp_path / "chain.digraph").write_text("digraph 3\n0 -> 1\n0 -> 2\n1 -> 2\n")
    (tmp_path / "k2.graph").write_text("graph 2\n0 -- 1\n")
    (tmp_path / "broken.digraph").write_text("digraph 2\n0 => 1\n")
    return tmp_path


def test_derive_golden(workdir):
    out = workdir / "out.graph"
    dot = workdir / "out.dot"
    r = run_cli(
        "derive", "--kind", "cce",
        "--in", str(workdir / "square.digraph"),
        "--out", str(out), "--dot", str(dot),
    )
    assert r.returncode == 0
    assert out.read_text() == "graph 4\n1 -- 2\n"
    assert "shape=diamond" in dot.read_text()

    r = run_cli(
        "derive", "--kind", "competition",
        "--in", str(workdir / "witness.digraph"),
        "--out", str(out), "--json",
    )
    assert r.returncode == 0
    assert out.read_text() == "graph 4\n0 -- 1\n0 -- 2\n1 -- 2\n"
    payload = json.loads(r.stdout)
    assert payload["derived"]["edges"] == [[0, 1], [0, 2], [1, 2]]

    r = run_cli(
        "derive", "--kind", "niche",
        "--in", str(workdir / "square.digraph"), "--out", str(out),
    )
    assert r.returncode == 0
    assert out.read_text() == "graph 4\n1 -- 2\n"


def test_check_exit_codes_and_output(workdir):
    r = run_cli("check", "--condition", "C", "--p", "2",
                "--in", str(workdir / "chain.digraph"))
    assert r.returncode == 0
    assert r.stdout == "C(2): satisfied\n"

    r = run_cli("check", "--condition", "C", "--p", "2",
                "--in", str(workdir / "twocycle.digraph"))
    assert r.returncode == 1
    assert r.stdout == "C(2): violated by {0, 1}\n"

    r = run_cli("check", "--condition", "Cp", "--p", "3",
                "--in", str(workdir / "witness.digraph"))
    assert r.returncode == 0

    r = run_cli("check", "--condition", "C", "--p", "1",
                "--in", str(workdir / "chain.digraph"))
    assert r.returncode == 2

    r = run_cli("check", "--condition", "C", "--p", "2",
                "--in", str(workdir / "twocycle.digraph"), "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout) == {
        "condition": "C", "p": 2, "satisfied": False, "witness": [0, 1],
    }


def test_recognize(workdir):
    r = run_cli("recognize", "--model", "semiorder",
                "--in", str(workdir / "chain.digraph"))
    assert r.returncode == 0
    assert r.stdout == "semiorder 3 delta=1\n0: f=3\n1: f=3/2\n2: f=0\n"

    out = workdir / "rep.intervals"
    r = run_cli("recognize", "--model", "interval",
                "--in", str(workdir / "chain.digraph"), "--out", str(out))
    assert r.returncode == 0
    assert out.read_text() == "intervals 3\n0: [2,2]\n1: [1,1]\n2: [0,0]\n"

    r = run_cli("recognize", "--model", "semiorder",
                "--in", str(workdir / "twocycle.digraph"))
    assert r.returncode == 1

    r = run_cli("recognize", "--model", "interval",
                "--in", str(workdir / "square.digraph"), "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"model": "interval", "present": False}


def test_witness_golden(workdir):
    r = run_cli("witness", "--shape", "2,2", "--model", "semiorder")
    assert r.returncode == 0
    assert r.stdout == "semiorder 4 delta=1\n0: f=0\n1: f=0\n2: f=2\n3: f=-2\n"

    out = workdir / "w.digraph"
    r = run_cli("witness", "--shape", "2,2", "--out", str(out))
    assert r.returncode == 0
    assert out.read_text() == (
        "digraph 4\n0 -> 3\n1 -> 3\n2 -> 0\n2 -> 1\n2 -> 3\n"
    )

    r = run_cli("witness", "--shape", "1,2")
    assert r.returncode == 2

    r = run_cli("witness", "--shape", "2")
    assert r.returncode == 2


def test_dk_golden(workdir):
    wfile = workdir / "dk.digraph"
    r = run_cli("dk", "--in", str(workdir / "k2.graph"), "--kmax", "3",
                "--witness-out", str(wfile))
    assert r.returncode == 0
    assert r.stdout == "dk = 2\n"
    witness = parse_digraph(wfile.read_text())
    assert witness.n == 4 and witness.is_acyclic()

    r = run_cli("dk", "--in", str(workdir / "k2.graph"), "--kmax", "1")
    assert r.returncode == 1

    r = run_cli("dk", "--in", str(workdir / "k2.graph"), "--kmax", "9")
    assert r.returncode == 4


DK_WITNESS = "digraph 4\n0 -> 2\n1 -> 2\n3 -> 0\n3 -> 1\n"
SHAPE_22 = "digraph 4\n0 -> 3\n1 -> 3\n2 -> 0\n2 -> 1\n2 -> 3\n"
CHAIN_INTERVALS = "intervals 3\n0: [2,2]\n1: [1,1]\n2: [0,0]\n"
EXPLORE_3_SECTION = (
    "  I_3   witness: (no arcs)\n"
    "  K_2 u I_1   witness: 0->0 0->1\n"
    "  edges 0-2 1-2   witness: 0->0 0->2 1->0\n"
    "  K_3   witness: 0->0 0->1 0->2\n"
)

# name -> (arguments, stdout (parsed when it is JSON), what out.txt holds
# afterwards or None where the command must not write it)
OUTPUT_CASES = {
    "recognize-json-out": (
        ["recognize", "--model", "interval", "--in", "chain.digraph",
         "--out", "out.txt", "--json"],
        {"model": "interval", "present": True,
         "intervals": [["2", "2"], ["1", "1"], ["0", "0"]]},
        CHAIN_INTERVALS,
    ),
    "witness-json-out": (
        ["witness", "--shape", "2,2", "--out", "out.txt", "--json"],
        {"model": "loopless", "shape": [2, 2], "n": 4,
         "arcs": [[0, 3], [1, 3], [2, 0], [2, 1], [2, 3]]},
        SHAPE_22,
    ),
    "dk-json-witness-out": (
        ["dk", "--in", "k2.graph", "--kmax", "3", "--witness-out", "out.txt",
         "--json"],
        {"dk": 2, "witness": {"n": 4, "arcs": [[0, 2], [1, 2], [3, 0], [3, 1]]}},
        DK_WITNESS,
    ),
    "dk-text-witness-out": (
        ["dk", "--in", "k2.graph", "--kmax", "3", "--witness-out", "out.txt"],
        "dk = 2\n",
        DK_WITNESS,
    ),
    "dk-text": (
        ["dk", "--in", "k2.graph", "--kmax", "3"],
        "dk = 2\n" + DK_WITNESS,
        None,
    ),
    "explore-text": (
        ["explore", "--problem", "3", "--p", "2", "--n", "3", "--threads", "1"],
        "problem 3 at p=2, n=3: 512 digraphs examined\n"
        + "".join(f"[{name}] 4 isomorphism classes\n" + EXPLORE_3_SECTION
                  for name in ("C", "Cp", "Cs", "Csp")),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
def test_output_goes_to_stdout_and_to_the_file_flag(
    name, workdir, monkeypatch, capsys
):
    from ccelab import cli

    args, stdout, written = OUTPUT_CASES[name]
    monkeypatch.chdir(workdir)
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert (json.loads(out) if "--json" in args else out) == stdout
    out_file = workdir / "out.txt"
    assert (out_file.read_text() if out_file.exists() else None) == written


# a file flag naming a path that cannot be written, for each command that has one
UNWRITABLE_CASES = {
    "recognize-json": ["recognize", "--model", "interval", "--in", "chain.digraph",
                       "--json", "--out"],
    "witness-json": ["witness", "--shape", "2,2", "--json", "--out"],
    "dk-json": ["dk", "--in", "k2.graph", "--kmax", "3", "--json", "--witness-out"],
    "dk-text": ["dk", "--in", "k2.graph", "--kmax", "3", "--witness-out"],
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE_CASES))
def test_an_unwritable_output_file_exits_3_with_empty_stdout(
    name, workdir, monkeypatch, capsys
):
    from ccelab import cli

    monkeypatch.chdir(workdir)
    assert cli.main(UNWRITABLE_CASES[name] + ["no-such-dir/out.txt"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error:")


def test_verify_and_explore(workdir):
    r = run_cli("verify", "--theorem", "main0", "--n", "4")
    assert r.returncode == 0
    assert r.stdout == "main0: verified (207 digraphs checked)\n"

    r = run_cli("verify", "--theorem", "kr", "--n", "4", "--threads", "2",
                "--progress")
    assert r.returncode == 0
    assert "chunks" in r.stderr

    r = run_cli("verify", "--theorem", "loopless", "--n", "4", "--p", "2",
                "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verified"] is True and payload["checked"] == 4096

    r = run_cli("verify", "--theorem", "props", "--n", "3")
    assert r.returncode == 0

    r = run_cli("verify", "--theorem", "loopless", "--n", "4", "--p", "2",
                "--threads", "2", "--progress")
    assert r.returncode == 0
    assert "chunks" in r.stderr

    r = run_cli("verify", "--theorem", "kr", "--n", "12")
    assert r.returncode == 4

    r = run_cli("explore", "--problem", "3", "--p", "2", "--n", "3", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert set(payload["sections"]) == {"C", "Cp", "Cs", "Csp"}


def test_verify_reports_a_missing_shape_without_a_report_file(
    tmp_path, monkeypatch, capsys
):
    from ccelab import SweepOutcome, cli

    outcome = SweepOutcome(207, missing_shape=(4, 0, "interval order"))
    monkeypatch.setattr(cli, "verify_theorem_main0", lambda n, **options: outcome)
    report = tmp_path / "ce.digraph"
    args = ["verify", "--theorem", "main0", "--n", "4", "--report", str(report)]

    assert cli.main(args + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False and payload["counterexample"] is None
    assert payload["missing_shape"] == {"r": 4, "q": 0, "family": "interval order"}

    assert cli.main(args) == 1
    assert capsys.readouterr().out == (
        "main0: shape K_4 u I_0 realized by no interval order\n"
    )
    assert not report.exists()


def test_props_above_its_cap_exits_4_before_sweeping(monkeypatch, capsys):
    from ccelab import cli, enumeration, theorems
    from ccelab.caps import CAP_ENV_VAR

    def no_sweep(*args, **kwargs):
        raise AssertionError("the props sweep started")

    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    # props sweeps the level matrices, not the labeled generator
    monkeypatch.setattr(theorems, "level_matrices", no_sweep)
    monkeypatch.setattr(enumeration, "_digraph_rows", no_sweep)
    assert cli.main(["verify", "--theorem", "props", "--n", "8"]) == 4
    assert "props enumeration cap 7" in capsys.readouterr().err


# one command per cap of the table at cap + 1, but for the general cap, which
# no command reaches (enumerate_digraphs alone reads it, and
# test_cap_refusal_and_env_override refuses it); K2 stands for a 2-vertex graph
CAP_CASES = {
    "kr": (["verify", "--theorem", "kr", "--n", "12"], "order", 11),
    "main0": (["verify", "--theorem", "main0", "--n", "12"], "order", 11),
    "loopless": (["verify", "--theorem", "loopless", "--n", "8"], "loopless", 7),
    "acyclic": (["verify", "--theorem", "acyclic", "--n", "8"], "acyclic", 7),
    "props": (["verify", "--theorem", "props", "--n", "8"], "props", 7),
    **{
        f"explore{problem}": (
            ["explore", "--problem", str(problem), "--p", "2", "--n", "6"],
            "explore", 5,
        )
        for problem in (1, 2, 3)
    },
    "dk": (["dk", "--in", "K2", "--kmax", "6"], "dk", 7),
}


def test_cap_cases_cover_the_cap_table():
    from ccelab.caps import DEFAULT_CAPS

    covered = {(kind, cap) for _, kind, cap in CAP_CASES.values()}
    assert covered | {("general", 6)} == set(DEFAULT_CAPS.items())
    assert ("general", 6) not in covered


@pytest.mark.parametrize("name", sorted(CAP_CASES))
def test_each_sweep_above_its_cap_exits_4_before_sweeping(
    name, workdir, monkeypatch, capsys
):
    from ccelab import cli, dk, enumeration, theorems
    from ccelab.caps import CAP_ENV_VAR

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started above its cap")

    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    monkeypatch.setattr(enumeration, "_digraph_rows", no_sweep)
    monkeypatch.setattr(enumeration, "level_matrices", no_sweep)
    monkeypatch.setattr(theorems, "level_matrices", no_sweep)
    monkeypatch.setattr(dk, "search_realization", no_sweep)
    args, kind, cap = CAP_CASES[name]
    args = [str(workdir / "k2.graph") if a == "K2" else a for a in args]
    assert cli.main(args + ["--threads", "1"]) == 4
    assert f"{kind} {'search' if kind == 'dk' else 'enumeration'} cap {cap}" in (
        capsys.readouterr().err
    )


# every name a handler looks up on the cli module at call time, with a command
# that calls it and that command's exit code
HANDLER_LOOKUPS = {
    **{
        f"verify_theorem_{theorem}": (
            ["verify", "--theorem", theorem, "--n", "3", "--p", "2", "--json"], 0
        )
        for theorem in ("kr", "main0", "loopless", "acyclic", "props")
    },
    "explore_open_problem": (
        ["explore", "--problem", "1", "--p", "2", "--n", "3", "--threads", "1"], 0
    ),
    "double_competition_number": (["dk", "--in", "k2.graph", "--kmax", "3"], 0),
    "satisfies_condition": (
        ["check", "--condition", "C", "--p", "2", "--in", "twocycle.digraph"], 1
    ),
    "recognize_semiorder": (
        ["recognize", "--model", "semiorder", "--in", "chain.digraph"], 0
    ),
    "recognize_interval_order": (
        ["recognize", "--model", "interval", "--in", "chain.digraph"], 0
    ),
    "witness_loopless": (["witness", "--shape", "2,2"], 0),
    "witness_semiorder": (["witness", "--shape", "2,2", "--model", "semiorder"], 0),
}


@pytest.mark.parametrize("name", sorted(HANDLER_LOOKUPS))
def test_handlers_call_the_module_attributes(name, workdir, monkeypatch, capsys):
    # a function replaced on the cli module, as a tracer wraps it, is the one
    # the handler calls
    from ccelab import cli

    calls = []
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    monkeypatch.chdir(workdir)
    args, code = HANDLER_LOOKUPS[name]
    assert cli.main(args) == code
    assert calls == [name]


def test_zero_threads_means_one_worker_per_usable_cpu(monkeypatch):
    import argparse

    from ccelab import cli

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._workers(argparse.Namespace(threads=0)) == 1
    assert cli._workers(argparse.Namespace(threads=3)) == 3
    # where the OS cannot say which CPUs a process may use, every CPU counts
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    assert cli._workers(argparse.Namespace(threads=0)) == 5


# each subcommand, in the order the top-level help lists them, with its options
SUBCOMMAND_OPTIONS = {
    "derive": {"--kind", "--in", "--out", "--dot", "--json"},
    "check": {"--condition", "--p", "--in", "--json"},
    "recognize": {"--model", "--in", "--out", "--json"},
    "witness": {"--shape", "--model", "--out", "--json"},
    "dk": {"--in", "--kmax", "--witness-out", "--threads", "--json"},
    "verify": {"--theorem", "--n", "--p", "--report", "--threads", "--progress",
               "--json"},
    "explore": {"--problem", "--p", "--n", "--threads", "--json"},
}


def cli_exit(args, capsys, monkeypatch):
    """(exit code, stdout, stderr) of a cli.main call that argparse ends."""
    from ccelab import cli

    # argparse wraps to the terminal's width; fix it so the layout is known
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    return (exc.value.code, *capsys.readouterr())


def test_top_level_help_lists_every_subcommand(capsys, monkeypatch):
    code, out, err = cli_exit(["--help"], capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert out.startswith("usage: ccelab [-h] {" + ",".join(SUBCOMMAND_OPTIONS) + "}")
    listed = re.findall(r"^ {4}(\w+) +\S", out, re.MULTILINE)
    assert listed == list(SUBCOMMAND_OPTIONS)


@pytest.mark.parametrize("name", list(SUBCOMMAND_OPTIONS))
def test_each_subcommand_help_lists_its_options(name, capsys, monkeypatch):
    code, out, err = cli_exit([name, "--help"], capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: ccelab {name} [-h] ")
    options = set(re.findall(r"(?<![\w-])--\w[\w-]*", out))
    assert options == SUBCOMMAND_OPTIONS[name] | {"--help"}


USAGE_ERRORS = {
    "no-subcommand": (
        [], "ccelab: error: the following arguments are required: command"
    ),
    "unknown-subcommand": (
        ["nope"], "ccelab: error: argument command: invalid choice: 'nope'"
    ),
    "bad-theorem": (
        ["verify", "--theorem", "x", "--n", "3"],
        "ccelab verify: error: argument --theorem: invalid choice: 'x'",
    ),
    "missing-n": (
        ["verify", "--theorem", "kr"],
        "ccelab verify: error: the following arguments are required: --n",
    ),
    "negative-threads": (
        ["verify", "--theorem", "main0", "--n", "3", "--threads", "-3"],
        "ccelab verify: error: argument --threads: must be 0 or more, got -3",
    ),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_with_their_message(name, capsys, monkeypatch):
    args, message = USAGE_ERRORS[name]
    code, out, err = cli_exit(args, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ccelab")
    # the last line; argparse words the list of choices differently by version
    assert err.splitlines()[-1].startswith(message)


@pytest.mark.parametrize("args", [
    ["verify", "--theorem", theorem, "--n", "-1"]
    for theorem in ("kr", "main0", "loopless", "acyclic", "props")
] + [["explore", "--problem", "1", "--p", "2", "--n", "-1"]],
    ids=["kr", "main0", "loopless", "acyclic", "props", "explore"])
def test_negative_vertex_count_is_a_usage_error(args, capsys):
    from ccelab import cli

    assert cli.main(args) == 2
    assert capsys.readouterr().err == "error: vertex count must be non-negative\n"


# Runs each command through cli.main in one fresh process, then prints the
# exit codes and which of the modules given in argv[2] got loaded.  It loads
# no json of its own, so that a probe can tell whether a command does.
_LOAD_PROBE = """
import ast, contextlib, io, sys
from ccelab import cli
codes = []
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(repr([codes, sorted(set(ast.literal_eval(sys.argv[2])) & set(sys.modules))]))
"""


def load_probe(workdir, commands, modules):
    """[exit codes, the modules loaded] after running the commands in one
    fresh process."""
    r = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, repr(commands), repr(modules)],
        capture_output=True, text=True, cwd=workdir,
    )
    assert r.returncode == 0, r.stderr
    return ast.literal_eval(r.stdout)


def test_commands_without_sweeps_load_neither_the_pool_nor_the_sweeps(workdir):
    commands = [
        ["dk", "--in", "k2.graph", "--kmax", "3"],
        ["check", "--condition", "C", "--p", "2", "--in", "chain.digraph"],
        ["derive", "--kind", "cce", "--in", "square.digraph", "--out", "sq.graph"],
        ["--help"],
    ]
    # nor dataclasses (which loads inspect), fractions (which loads decimal)
    # or the orders
    heavy = ["concurrent.futures", "multiprocessing", "ccelab.enumeration",
             "ccelab.witnesses", "dataclasses", "inspect", "fractions", "decimal",
             "ccelab.orders"]
    assert load_probe(workdir, commands, heavy) == [[0, 0, 0, 0], []]

    # a sweep builds no dataclass and no Fraction, and the loopless sweep
    # leaves its "if" direction to the witness tests
    verify = [["verify", "--theorem", theorem, "--n", "4", "--p", "2"]
              for theorem in ("acyclic", "loopless")]
    unused = ["ccelab.witnesses", "dataclasses", "fractions"]
    assert load_probe(workdir, verify, unused) == [[0, 0], []]
    # recognize finds the recognizers it defers
    recognize = ["recognize", "--model", "semiorder", "--in", "chain.digraph"]
    assert load_probe(workdir, [recognize], ["ccelab.orders"]) == [[0], ["ccelab.orders"]]

    # only a labeled scan split over workers loads the pool: loopless at
    # p >= 4, not main0 (which takes no worker count) nor loopless at p = 3
    pool = ["concurrent.futures"]
    for argv, loaded in (
        (["verify", "--theorem", "loopless", "--n", "4", "--p", "4"], pool),
        (["verify", "--theorem", "main0", "--n", "5"], []),
        (["verify", "--theorem", "loopless", "--n", "4", "--p", "3"], []),
    ):
        command = argv + ["--threads", "2", "--json"]
        assert load_probe(workdir, [command], pool) == [[0], loaded], argv


def test_each_command_loads_only_the_modules_it_runs(workdir):
    import ccelab

    package = Path(ccelab.__file__).parent
    submodules = sorted(f"ccelab.{path.stem}" for path in package.glob("*.py")
                        if path.stem != "__init__")
    # --help builds the parser alone
    assert load_probe(workdir, [["--help"]], submodules + ["json"]) == [
        [0], ["ccelab.cli"]
    ]
    for argv, module, loaded in (
        (["dk", "--in", "k2.graph", "--kmax", "3"], "ccelab.conditions", False),
        (["verify", "--theorem", "main0", "--n", "4"], "ccelab.dk", False),
        (["check", "--condition", "C", "--p", "2", "--in", "chain.digraph"],
         "ccelab.conditions", True),
    ):
        assert load_probe(workdir, [argv], [module]) == [
            [0], [module] if loaded else []
        ], argv
    # the level-matrix sweeps load neither the labeled scan nor what it
    # gates on, nor fileformats for their --json; at p = 4 the scan runs
    scan = ["ccelab.conditions", "ccelab.enumeration", "ccelab.fileformats",
            "ccelab.orders"]
    for argv, loaded in [
        (["verify", "--theorem", theorem, "--n", "4", "--p", p], [])
        for theorem in ("loopless", "acyclic") for p in ("2", "3")
    ] + [
        (["verify", "--theorem", "props", "--n", "3"], []),
        (["verify", "--theorem", "loopless", "--n", "4", "--p", "4"],
         ["ccelab.conditions", "ccelab.enumeration", "ccelab.orders"]),
    ]:
        assert load_probe(workdir, [argv + ["--json"]], scan) == [[0], loaded], argv
    # text-mode explore converts nothing to JSON
    explore = ["explore", "--problem", "3", "--p", "2", "--n", "3"]
    assert load_probe(workdir, [explore], ["ccelab.fileformats", "json"]) == [[0], []]


@pytest.mark.parametrize("args", [
    ["verify", "--theorem", "main0", "--n", "3"],
    ["explore", "--problem", "1", "--p", "2", "--n", "3"],
    ["dk", "--in", "k2.graph", "--kmax", "3"],
], ids=["verify", "explore", "dk"])
def test_negative_thread_count_is_a_usage_error(workdir, args):
    r = run_cli(*args, "--threads", "-3", "--json", cwd=workdir)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--threads: must be 0 or more, got -3" in r.stderr


def test_package_names_resolve_to_their_defining_objects():
    import importlib

    import ccelab

    for name in ccelab.__all__:
        value = getattr(ccelab, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    namespace = {}
    exec("from ccelab import *", namespace)
    assert set(ccelab.__all__) <= set(namespace)
    assert set(ccelab.__all__) <= set(dir(ccelab))
    with pytest.raises(AttributeError):
        ccelab.no_such_name


def test_parse_and_io_failures(workdir):
    out = workdir / "x.graph"
    r = run_cli("derive", "--kind", "cce",
                "--in", str(workdir / "broken.digraph"), "--out", str(out))
    assert r.returncode == 2
    assert "line 2" in r.stderr

    r = run_cli("derive", "--kind", "cce",
                "--in", str(workdir / "nope.digraph"), "--out", str(out))
    assert r.returncode == 3

    r = run_cli("derive", "--kind", "sideways",
                "--in", str(workdir / "square.digraph"), "--out", str(out))
    assert r.returncode == 2


def test_cli_round_trip_via_files(workdir):
    rng = random.Random(123)
    for i in range(5):
        n = rng.randint(1, 5)
        d = Digraph(
            n,
            [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3],
        )
        src = workdir / f"fuzz{i}.digraph"
        src.write_text(serialize_digraph(d))
        out = workdir / f"fuzz{i}.json"
        r = run_cli("derive", "--kind", "competition", "--in", str(src),
                    "--out", str(workdir / f"fuzz{i}.graph"), "--json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["digraph"]["n"] == n
