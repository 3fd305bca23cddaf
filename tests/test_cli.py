import json
import random
import subprocess
import sys

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
    from ccelab import cli, enumeration
    from ccelab.caps import CAP_ENV_VAR

    def no_sweep(*args, **kwargs):
        raise AssertionError("the props sweep started")

    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    # props sweeps the level matrices, not the labeled generator
    monkeypatch.setattr(enumeration, "level_matrices", no_sweep)
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
    from ccelab import cli, dk, enumeration
    from ccelab.caps import CAP_ENV_VAR

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started above its cap")

    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    monkeypatch.setattr(enumeration, "_digraph_rows", no_sweep)
    monkeypatch.setattr(enumeration, "level_matrices", no_sweep)
    monkeypatch.setattr(dk, "search_realization", no_sweep)
    args, kind, cap = CAP_CASES[name]
    args = [str(workdir / "k2.graph") if a == "K2" else a for a in args]
    assert cli.main(args + ["--threads", "1"]) == 4
    assert f"{kind} {'search' if kind == 'dk' else 'enumeration'} cap {cap}" in (
        capsys.readouterr().err
    )


def test_handlers_call_the_module_attributes(workdir, monkeypatch, capsys):
    from ccelab import ExploreReport, cli

    def explore(problem, p, n, workers):
        return ExploreReport(problem, p, n, checked=7, sections={})

    monkeypatch.setattr(cli, "explore_open_problem", explore)
    assert cli.main(["explore", "--problem", "1", "--p", "2", "--n", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 7

    monkeypatch.setattr(cli, "double_competition_number", lambda g, k_max: None)
    args = ["dk", "--in", str(workdir / "k2.graph"), "--kmax", "3", "--json"]
    assert cli.main(args) == 1
    assert json.loads(capsys.readouterr().out) == {"dk": None, "kmax": 3}


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
# exit codes and which of the modules given in argv[2] got loaded.
_LOAD_PROBE = """
import contextlib, io, json, sys
from ccelab import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, sorted(set(json.loads(sys.argv[2])) & set(sys.modules))]))
"""


def load_probe(workdir, commands, modules):
    """[exit codes, the modules loaded] after running the commands in one
    fresh process."""
    r = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, json.dumps(commands), json.dumps(modules)],
        capture_output=True, text=True, cwd=workdir,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


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

    # a sweep loads the orders but builds no dataclass and no Fraction, and
    # the loopless sweep leaves its "if" direction to the witness tests
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
