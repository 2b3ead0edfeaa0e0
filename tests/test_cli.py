import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retroking
from retroking import OMEGA, Check
from retroking.cli import (
    COMMANDS, TOMOGRAPHY_STATES, RunConfig, _format_symbolic, build_parser, main, run,
)
from retroking import brackets, linalg, mub, protocol, reporting

from conftest import _clear_caches, mutated, perfbench_checks


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    report = json.loads(capsys.readouterr().out)
    return code, report


def strip_timing(report):
    trimmed = dict(report)
    trimmed.pop("timing")
    return trimmed


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(command="simulate")
        assert (config.rounds, config.seed, config.basis, config.format) == (
            10_000, 0, None, "text",
        )

    def test_rejects_bad_values(self):
        from retroking import ContractViolation

        with pytest.raises(ContractViolation):
            RunConfig(command="simulate", rounds=0)
        with pytest.raises(ContractViolation):
            RunConfig(command="simulate", basis=5)
        with pytest.raises(ContractViolation):
            RunConfig(command="nope")
        with pytest.raises(ContractViolation):
            RunConfig(["verify"])
        with pytest.raises(ContractViolation):
            RunConfig({})


def test_parser_offers_exactly_the_command_table():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_run_config_holds_the_only_defaults(command):
    assert RunConfig(**vars(build_parser().parse_args([command]))) == RunConfig(command)


# sha256 of stdout as first pinned: JSON without its timing field, text
# without its elapsed: line.  A third key entry is the seed; verify's digests
# lock every check's deviation.
PINNED_STDOUT = {
    ("tables", "text"): "4fb70fd5a2ecc6334f1f3c3437e29cfff5f67627a94d19b32038edfe066baa63",
    ("tables", "json"): "285adeef13604c8d1875949b4620183ee9f3fcfb143eddb26e29a9a6c60b329b",
    ("search-bases", "text"): "772a2561b41b2a5d6c2549b12867e43f1486ae3b678f84b2178e8dff33983492",
    ("search-bases", "json"): "f18c162a7896f8f87869b19053e49c030ff44dbd382682427562b0490f9bb8c9",
    ("verify", "json", 0): "653f616c7d1758a187458af6583b13e0cb52979e3056f234679fa047ac198c17",
    ("verify", "json", 2**64 - 1):
        "4d143c88d2f1782b8147cee177991931d3c0b133b050065a5ca76249f92ad91e",
    ("verify", "text", 0): "c74e1afabe191980a3831584d01877fb7aa7bda9830a14d6c7c704507e151767",
    ("simulate", "text", 0): "58312896e7ae709b70370eff7b46e9bc8fd798ce7857ed0fafcce48faa7c38be",
    ("tomography", "text", 0): "47be72f7caf6b1ce9ab074dbd54aca2d9acaedd7f4ea748978103404949ec48d",
    ("tomography", "text", 7): "5a95c97ac55591934359dad1d5e298bdbf3a48f16c2b57d1e4f1c25b6b3d090e",
    ("tomography", "json", 0): "6a196778d1535357ee0701a72c19dabe6238be05cc47528bac6623360ec78555",
    ("tomography", "json", 7): "aa6de9991281b2c34a8f71126692887ce7d76b18349ec48117c8bd9e1fad7f17",
}


@pytest.mark.parametrize("key", list(PINNED_STDOUT), ids=lambda key: "-".join(map(str, key)))
def test_stdout_is_pinned(capsys, key):
    command, fmt, *seed = key
    assert main([command, "--format", fmt] + [f"--seed={s}" for s in seed]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        out = json.dumps(strip_timing(json.loads(out)), indent=2)
    else:
        out = "".join(
            line for line in out.splitlines(keepends=True) if not line.startswith("elapsed:")
        )
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[key]


@pytest.fixture
def psi_basis_raises(monkeypatch):
    def broken():
        raise RuntimeError("trio 3 un-mixes to a shared column off psi_0")

    monkeypatch.setattr(brackets, "build_psi_basis", broken)
    _clear_caches()
    yield
    _clear_caches()


def test_verify_reports_a_builder_that_raises(capsys, psi_basis_raises):
    code = main(["verify", "--format", "json"])
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert code == 1
    assert report["pass"] is False
    names = [c["name"] for c in report["checks"]]
    # the mub and protocol suites still report: only the family's suite fails to build
    assert "qutrit-unbiasedness" in names and "round-engine-replay" in names
    assert [c for c in report["checks"] if not c["pass"]] == [
        {"name": "brackets-construction", "pass": False, "max_deviation": 1.0},
    ]
    assert out.err == "error: trio 3 un-mixes to a shared column off psi_0\n"


# Mutants: (module, function, source fragment, replacement) rebuilds a
# function; (module, constant, value) replaces a module constant, which
# ``mutated`` cannot rewrite.
ONE_THIRD = protocol.ONE_THIRD
MUTANTS = {
    "bracket-unconjugated": (brackets, "bracket_matrix", " - prepare_psi0().amps[:, None]", ""),
    "selection-reversed": (brackets, "selection_matrix", "np.arange(3)", "np.arange(3)[::-1]"),
    "overlap-law": (brackets, "overlap_law", "/ 3.0", "/ 3.1"),
    "label-index": (brackets, "_label_index", "(27, 9, 3, 1)", "(27, 9, 1, 3)"),
    "trio-conjugated": (brackets, "trio_matrix", ".projectors", ".projectors.conj()"),
    "bias-diagonal": (mub, "_bias", "np.fill_diagonal(bias, 0.0)", "pass"),
    "collapse-unconjugated": (protocol, "_collapse_born", "trio_matrix().conj()",
                              "trio_matrix()"),
    "qutrit-basis-power": (mub, "qutrit_basis_matrices", "2 * (j == k)", "(j == k)"),
    "projector-unconjugated": (mub, "MubSet", "u, u.conj())", "u, u)"),
    "thirds-off": (protocol, "_thirds", "1.0 / 3.0", "0.3"),
    "sum-doubled": (linalg, "sample_outcome", "abs(p.sum()", "abs(p.sum() * 2"),
    "search-drops-last": (brackets, "_search", ".tolist()})", ".tolist()})[:-1]"),
    "search-every-other": (brackets, "_search", ".tolist()})", ".tolist()})[::2]"),
    "search-reversed": (brackets, "_search", ".tolist()})", ".tolist()}, reverse=True)"),
    "certainty-eight-labels": (brackets, "search_report", "[:, index].sum", "[:, index[:, 1:]].sum"),
    "one-third-x1.01": (protocol, "ONE_THIRD", ONE_THIRD * 101 // 100),
    "one-third-x1.2": (protocol, "ONE_THIRD", ONE_THIRD * 6 // 5),
    "one-third-plus-1": (protocol, "ONE_THIRD", ONE_THIRD + 1),
    "one-third-float": (protocol, "ONE_THIRD", ONE_THIRD * 1.01),
    "search-finds-nothing": (brackets, "_search", ".tolist()})", ".tolist()})[:0]"),
    "infer-coordinate": (brackets, "infer", ".labels[j][m]", ".labels[j][(m + 1) % 4]"),
    "map-words-basis": (protocol, "_map_words", "(w0 & 3)", "(w1 & 3)"),
    "run-round-basis": (protocol, "run_round", "m = w0 & 3", "m = w1 & 3"),
    "chunks-block-1": (protocol, "round_chunks", "round_stream(seed, 0)", "round_stream(seed, 1)"),
    "tomography-quarter": (mub, "_densities", "- 0.25", "- 0.2"),
    "psi-unmix-unconjugated": (brackets, "build_psi_basis", "fourier_matrix().conj().T",
                               "fourier_matrix().T"),
    "rank-deviation-plus-1": (mub, "invariant_checks", "abs(rank - 9)", "abs(rank - 10)"),
    "rank-deviation-sum": (mub, "invariant_checks", "abs(rank - 9)", "abs(rank + 9)"),
    "tally-physicist-complement": (protocol, "tally_rounds", "j[:, None] == np.arange(9)",
                                   "j[:, None] != np.arange(9)"),
    "tally-physicist-tenth": (protocol, "tally_rounds", "np.arange(9)", "np.arange(10)"),
}
MUTANT_RUNS = {
    "verify": ["verify"],
    "tables": ["tables"],
    "simulate": ["simulate", "--rounds", "100"],
    "search-bases": ["search-bases"],
    "tomography": ["tomography"],
}
# Commands a mutant rightly leaves passing, because they never read what it
# breaks: tomography reads only the qutrit bases, and of the commands only
# verify's replays draw through sample_outcome's sum check.  tables checks
# what it prints: its inference table against the round engine's bins, and
# its overlap law against the bracket Gram, so it fails under a wrong law, a
# wrong inference coordinate, a label-position rule with two coordinates
# swapped, a reversed selection or an unconjugated collapse table (each
# gives the engine bins whose inference is wrong), and a thirds rule the
# engine refuses to build.  A swapped label-position rule still finds
# orthonormal sets, but the physicist then measures states of the wrong
# labels.  Atom-swapped trios form a self-consistent protocol whose labels
# name the wrong bases: only verify's explicit replay collapses the given
# atom.  The relabelling k -> 2 - k of a reversed selection is consistent,
# so agreement counts and both bracket checks still hold: only the
# retrodiction and the engine's bins see it.  Only search-bases reads the
# search, whose positions and labels are one derivation.  verify and
# simulate certify the word constants they run on, so a wrong one fails
# both; tables and search-bases never read them.  A round's basis read off
# the wrong word, or the stream started one block late, leaves the bin law
# intact, so no goodness-of-fit statistic can tell either: only a replay of
# counted rounds alone can.  verify replays rounds 0..15 of seed 0, and
# simulate its first 16 rounds in order on one stream and its last round
# alone; a basis-word mutant escapes only where both words agree on every
# replayed round (test_simulate_replay_catches_a_basis_word_mutant holds
# seeds where they agree on the first and the last round).  The engine
# reads the labels itself, so simulate passes
# under a wrong inference coordinate.  Only verify reads the psi basis: an
# un-mixing by the transpose of the mixing matrix, not its adjoint, keeps
# column 0 at psi_0, so the drift guard passes, but swaps columns 1 and 2 of
# every trio, which only trio-reconstruction sees.  A rank deviation of 1 or
# 18 beside a passing flag is a Check that refuses itself, so verify reports
# a failed mub construction.  Only simulate tallies its rounds, and its
# simulate-tally check sees a physicist count that is not conserved.
STILL_PASSING = {
    "bracket-unconjugated": {"tomography"},
    "selection-reversed": {"search-bases", "tomography"},
    "trio-conjugated": {"tables", "simulate", "search-bases", "tomography"},
    "collapse-unconjugated": {"search-bases", "tomography"},
    "thirds-off": {"search-bases", "tomography"},
    "sum-doubled": {"tables", "simulate", "search-bases", "tomography"},
    "overlap-law": {"simulate", "search-bases", "tomography"},
    "label-index": {"search-bases", "tomography"},
    "search-drops-last": {"verify", "tables", "simulate", "tomography"},
    "search-every-other": {"verify", "tables", "simulate", "tomography"},
    "search-finds-nothing": {"verify", "tables", "simulate", "tomography"},
    "search-reversed": {"verify", "tables", "simulate", "tomography"},
    "certainty-eight-labels": {"verify", "tables", "simulate", "tomography"},
    "infer-coordinate": {"simulate", "search-bases", "tomography"},
    "map-words-basis": {"tables", "search-bases", "tomography"},
    "run-round-basis": {"tables", "search-bases", "tomography"},
    "chunks-block-1": {"tables", "search-bases", "tomography"},
    "tomography-quarter": {"tables", "simulate", "search-bases"},
    "psi-unmix-unconjugated": {"tables", "simulate", "search-bases", "tomography"},
    "rank-deviation-plus-1": {"tables", "simulate", "search-bases", "tomography"},
    "rank-deviation-sum": {"tables", "simulate", "search-bases", "tomography"},
    "tally-physicist-complement": {"verify", "tables", "search-bases", "tomography"},
    "tally-physicist-tenth": {"verify", "tables", "search-bases", "tomography"},
    **dict.fromkeys(
        ["one-third-x1.01", "one-third-x1.2", "one-third-plus-1", "one-third-float"],
        {"tables", "search-bases", "tomography"},
    ),
}


@contextlib.contextmanager
def replaced(module, name, value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, value)
        yield


def _mutant_report(capsys, mutant, command):
    """The exit code and JSON report of ``command`` run under ``mutant``."""
    spec = MUTANTS[mutant]
    with (mutated if len(spec) == 4 else replaced)(*spec):
        code = main(MUTANT_RUNS[command] + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", list(MUTANT_RUNS))
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_every_command_reports_under_a_mutant(capsys, mutant, command):
    code, report = _mutant_report(capsys, mutant, command)
    assert set(report) == {"command", "config", "checks", "pass", "data", "timing"}
    assert report["pass"] is (command in STILL_PASSING.get(mutant, ()))
    assert code == (0 if report["pass"] else 1)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names)), names


def test_every_survivor_names_a_mutant():
    assert STILL_PASSING.keys() <= MUTANTS.keys()


@pytest.mark.parametrize(("mutant", "command"), [
    (mutant, command) for mutant, commands in STILL_PASSING.items() for command in sorted(commands)
])
def test_a_survivor_prints_the_unmutated_report(capsys, mutant, command):
    # a command that passes under a mutant must print what it prints
    # unmutated: anything else is a wrong report with exit 0
    argv = MUTANT_RUNS[command] + ["--format", "json"]
    main(argv)
    expected = strip_timing(json.loads(capsys.readouterr().out))
    assert strip_timing(_mutant_report(capsys, mutant, command)[1]) == expected


@pytest.mark.parametrize(("mutant", "seed"), [
    ("map-words-basis", 1), ("map-words-basis", 9), ("run-round-basis", 13), ("run-round-basis", 50),
])
def test_simulate_replay_catches_a_basis_word_mutant(capsys, mutant, seed):
    # at these seeds and the default rounds, the physicist's word and the
    # king's draw the same basis on rounds 0 and rounds - 1: only a replay of more
    # rounds sees the mutant (under map-words-basis the tally itself is wrong)
    with mutated(*MUTANTS[mutant]):
        assert main(["simulate", f"--seed={seed}", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == ["simulate-replay"]


def test_verify_sees_a_wrong_reconstruction_in_the_round_trip(capsys):
    # the rebuilt states are not validated, so an offset of 1/4 - 1/5 on each
    # of the twelve probabilities adds 0.2 I to every rebuilt state
    with mutated(*MUTANTS["tomography-quarter"]):
        code, report = run_json(capsys, ["verify"])
    assert code == 1
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["tomography-round-trip"]
    assert failed[0]["max_deviation"] == pytest.approx(0.2)


# Equivalent mutants: rewrites that change no report, each with the reason.
EQUIVALENT = {
    # no deviation lands exactly on TOL
    "within-le": (reporting, "within", "worst < TOL", "worst <= TOL"),
    # every collapse of the reference basis infers its outcome, so the
    # inference comparison of exhaustive_verify fails nothing
    "certainty-no-inference": (protocol, "exhaustive_verify", "(guessed == rows % 3).all()",
                               "True"),
}

# Checks that no mutant fails, each with the guard that refuses what would
# break it before the check runs: under such a mutant the command reports a
# failed construction instead.  Every other check a command reports fails
# under some mutant.
GUARDED = {
    "qutrit-basis-gram": "OrthonormalBasis: each basis of a MubSet is orthonormal within TOL",
    "qubit-basis-gram": "OrthonormalBasis: each basis of a MubSet is orthonormal within TOL",
    "qutrit-unbiasedness": "MubSet: a family with a biased pair is refused",
    "qubit-unbiasedness": "MubSet: a family with a biased pair is refused",
    "probability-map-rank": "MubSet: a complete unbiased family has a map of rank d**2, "
                            "and Check refuses a pass whose deviation is not below TOL",
    "entangled-four-forms": "OrthonormalBasis: each trio of a MubSet's projectors sums to vec(I)",
    "tomography-reconstruction": "DensityMatrix: a reconstruction must be a density matrix",
    "psi-basis-gram": "OrthonormalBasis: build_psi_basis refuses columns not orthonormal",
    "paired-orthogonality": "OrthonormalBasis: build_psi_basis refuses columns not orthonormal",
    "mixing-unitarity": "OrthonormalBasis: the mixing matrix holds basis 3 of the qutrit set",
    "bracket-trio-selectivity": "StateVector: PhysicistBasis refuses a bracket state off norm 1",
    "physicist-basis-gram": "OrthonormalBasis: PhysicistBasis refuses states not orthonormal",
}


def test_every_check_fails_under_a_mutant_or_is_guarded(capsys):
    never_failed = set()
    for command, argv in MUTANT_RUNS.items():
        names = {c["name"] for c in run_json(capsys, argv)[1]["checks"]}
        for mutant in MUTANTS:
            names -= {c["name"] for c in _mutant_report(capsys, mutant, command)[1]["checks"]
                      if not c["pass"]}
        never_failed |= names
    assert never_failed == GUARDED.keys()


def _json_reports(capsys):
    reports = []
    for argv in MUTANT_RUNS.values():
        main(argv + ["--format", "json"])
        reports.append(strip_timing(json.loads(capsys.readouterr().out)))
    return reports


@pytest.mark.parametrize("mutant", list(EQUIVALENT))
def test_equivalent_mutants_change_no_report(capsys, mutant):
    expected = _json_reports(capsys)
    with mutated(*EQUIVALENT[mutant]):
        assert _json_reports(capsys) == expected


def test_every_deviation_handed_to_within_is_a_distance(capsys, monkeypatch):
    # a reported deviation is how far a value lies from its law, never below
    # zero: a signed one prints 0 or less where it is off by round-off
    lowest = {}
    original = reporting.within

    def recording(name, deviation):
        entries = np.asarray(deviation, dtype=float)
        lowest[name] = min(lowest.get(name, np.inf), entries.min(initial=np.inf))
        return original(name, deviation)

    for module in (reporting, mub, brackets, protocol, retroking.cli):
        monkeypatch.setattr(module, "within", recording)
    for argv in MUTANT_RUNS.values():
        assert main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert "entangled-four-forms" in lowest
    assert {name: low for name, low in lowest.items() if low < 0} == {}


@pytest.mark.parametrize("command", ["tables", "simulate", "search-bases", "tomography"])
def test_only_verify_reads_the_psi_basis(capsys, psi_basis_raises, command):
    # the bracket family is built from the trios alone
    assert main(MUTANT_RUNS[command] + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_verify_prints_each_error_once(capsys):
    # every suite fails on the same broken mub construction
    with mutated(*MUTANTS["bias-diagonal"]):
        assert main(["verify", "--format", "json"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: bases 1 and 1 are not unbiased: deviation 6.667e-01"]


class TestVerify:
    def test_certifiers_return_what_verify_reports(self, capsys):
        _, report = run_json(capsys, ["verify"])
        reported = [c for c in report["checks"] if c["name"].startswith(("qutrit-", "qubit-"))
                    or c["name"] == "retrodiction-certainty"]
        checks = [
            *retroking.certify_unbiasedness(retroking.build_qutrit_mubs()),
            *retroking.certify_unbiasedness(retroking.build_qubit_mubs()),
            retroking.exhaustive_verify(),
        ]
        assert reported == [
            {"name": c.name, "pass": c.passed, "max_deviation": c.max_deviation} for c in checks
        ]
        # verify is the three suites in order, and nothing else
        suites = [*mub.invariant_checks(), *brackets.invariant_checks(),
                  *protocol.invariant_checks()]
        assert report["checks"] == [
            {"name": c.name, "pass": c.passed, "max_deviation": c.max_deviation} for c in suites
        ]

    def test_checks_do_not_depend_on_the_seed(self, capsys):
        # no check reads the seed: the tomography round trip runs on fixed
        # states, and the round replay on seed 0
        reports = [run_json(capsys, ["verify", f"--seed={seed}"])[1]["checks"]
                   for seed in (0, 7, 2**64 - 1)]
        assert reports[0] == reports[1] == reports[2]

    def test_passes_with_exit_zero(self, capsys):
        code, report = run_json(capsys, ["verify"])
        assert code == 0
        assert report["pass"] is True
        assert report["command"] == "verify"
        names = [c["name"] for c in report["checks"]]
        assert "qutrit-unbiasedness" in names
        assert "retrodiction-certainty" in names
        assert all(c["max_deviation"] < 1e-10 for c in report["checks"])

    def test_schema_fields(self, capsys):
        _, report = run_json(capsys, ["verify"])
        assert set(report) == {"command", "config", "checks", "pass", "data", "timing"}
        for check in report["checks"]:
            assert set(check) == {"name", "pass", "max_deviation"}

    def test_text_format(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out

    def test_text_and_json_carry_same_checks(self, capsys):
        main(["verify"])
        text = capsys.readouterr().out
        _, report = run_json(capsys, ["verify"])
        for check in report["checks"]:
            assert check["name"] in text

    def test_passes_without_an_svd(self, capsys, monkeypatch):
        # probability_map_rank decides rank 9 by the MUB frame identity and
        # _check_densities positivity by the 3 x 3 Cholesky pivots; an SVD
        # and eigvalsh are their fallbacks, for a map that misses the
        # identity and a stack that does not factor
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"ran numpy.linalg.{name}")
            return call

        for name in ("cholesky", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse(name))
            # the names matrix_rank reads
            monkeypatch.setattr(np.linalg._linalg, name, refuse(name))
        with pytest.raises(AssertionError, match="ran numpy.linalg.svd"):  # it reaches matrix_rank
            np.linalg.matrix_rank(np.eye(2))
        _clear_caches()  # the cached builders run under the patches too
        code, report = run_json(capsys, ["verify"])  # main calls cli.run
        assert code == 0 and report["pass"] is True
        assert {"name": "probability-map-rank", "pass": True, "max_deviation": 0.0} \
            in report["checks"]
        for state in TOMOGRAPHY_STATES:
            assert run(RunConfig("tomography", state=state))["pass"] is True
        assert run(RunConfig("search-bases"))["pass"] is True

    def test_failed_check_gives_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            protocol, "invariant_checks", lambda: [Check("forced-failure", False, 1.0)]
        )
        code, report = run_json(capsys, ["verify"])
        assert code == 1
        assert report["pass"] is False


VERIFY_CHECKS = [
    "qutrit-basis-gram", "qutrit-unbiasedness", "qubit-basis-gram", "qubit-unbiasedness",
    "tomography-round-trip", "probability-map-rank", "entangled-four-forms",
    "psi-basis-gram", "mixing-unitarity", "paired-orthogonality", "trio-reconstruction",
    "bracket-trio-selectivity", "bracket-overlap-law", "physicist-basis-gram",
    "retrodiction-certainty", "engine-word-constants", "round-engine-replay",
]


def run_python(args):
    """A finished subprocess of this interpreter run with ``args``, with the
    package under test first on its path."""
    env = dict(os.environ)
    source = str(Path(retroking.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_optimized(argv):
    """The JSON report of a ``python -O -m retroking.cli`` subprocess, which
    must exit 0.  python -O strips assert statements: a check written as
    one would vanish."""
    done = run_python(["-O", "-m", "retroking.cli", *argv, "--format", "json"])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# Runs the CLI on its arguments, then prints to stderr its exit code and
# which of numpy.ma and numpy.random the process imported.
COLD_PROBE = """
import sys
from retroking.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(code, *(m for m in ("numpy.ma", "numpy.random") if m in sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["search-bases"], ["search-bases", "--format", "json"], ["tables"],
    ["tables", "--format", "json"], ["--help"],
])
def test_a_command_that_draws_nothing_imports_no_numpy_ma_or_random(argv):
    # a cold call pays only for its own work: numpy.ma and numpy.random each
    # cost milliseconds and a megabyte to import
    done = run_python(["-c", COLD_PROBE, *argv])
    assert done.stderr.splitlines()[-1] == "0", done.stderr


@pytest.mark.parametrize("argv", [["verify"], ["simulate", "--rounds", "1"]])
def test_a_command_that_draws_imports_numpy_random_and_passes(argv):
    done = run_python(["-c", COLD_PROBE, *argv])
    code, *imported = done.stderr.splitlines()[-1].split()
    assert code == "0", done.stderr
    assert "numpy.random" in imported


def test_importing_the_cli_loads_no_dataclasses_or_argparse():
    # records are slotted classes, whose creation execs no generated code,
    # and only a call that parses arguments imports argparse
    done = run_python(["-c", "import sys, retroking, retroking.cli; print(*(m for m in "
                       "('dataclasses', 'argparse') if m in sys.modules))"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# Prints the resident kB of numpy's OpenBLAS mappings after importing
# retroking and after every command has run through cli.run and passed, or
# "skip" without a smaps file or an OpenBLAS mapping.  One BLAS thread, so
# OpenBLAS starts no thread pool.
BLAS_PROBE = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"

def blas_rss():
    kb, mapped, blas = 0, False, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            key, *rest = line.split()
            if not key.endswith(":"):  # a mapping's header; its path comes last
                blas = "openblas" in line.lower()
                mapped |= blas
            elif blas and key == "Rss:":
                kb += int(rest[0])
    return kb if mapped else None

from retroking.cli import COMMANDS, RunConfig, run

before = blas_rss() if os.path.exists("/proc/self/smaps") else None
if before is None:
    print("skip")
else:
    for command in COMMANDS:
        assert run(RunConfig(command))["pass"] is True, command
    print(before, blas_rss())
"""


def test_no_passing_command_touches_openblas():
    # linalg._product keeps every product on numpy's own einsum loop: BLAS's
    # first call of each kernel faults in its code, ~0.6 MB in all
    done = run_python(["-c", BLAS_PROBE])
    assert done.returncode == 0, done.stderr
    if done.stdout.split() == ["skip"]:
        pytest.skip("no /proc/self/smaps or no OpenBLAS mapping")
    before, after = map(int, done.stdout.split())
    assert after <= before, f"OpenBLAS resident kB grew from {before} to {after}"


def test_bench_expects_only_checks_verify_reports():
    # a check dropped from verify fails here, not first in a benchmark run
    assert perfbench_checks().EXPECTED_VERIFY_CHECKS <= set(VERIFY_CHECKS)


@pytest.mark.parametrize("command", ["verify", "search-bases"])
def test_optimized_interpreter_keeps_every_check(command):
    report = run_optimized([command])
    assert report["pass"] is True
    if command == "verify":
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
    else:
        assert report["data"]["count"] == 72
        assert len(report["data"]["bases"]) == 72


# What (rounds, seed, basis) gives with two Philox words per round: any
# later engine on the same layout must play the same rounds.
PINNED_SIMULATIONS = [
    ((100_000, 42, None), {
        "rounds": 100000, "successes": 100000,
        "basis_choices": [25112, 24916, 25108, 24864],
        "king_outcomes": [[8344, 8410, 8358], [8249, 8383, 8284], [8387, 8478, 8243],
                          [8262, 8357, 8245]],
        "physicist_outcomes": [11006, 11147, 11188, 11145, 11059, 10989, 11222, 11134, 11110],
    }),
    ((70_000, 7, 2), {
        "rounds": 70000, "successes": 70000,
        "basis_choices": [0, 0, 70000, 0],
        "king_outcomes": [[0, 0, 0], [0, 0, 0], [23470, 23168, 23362], [0, 0, 0]],
        "physicist_outcomes": [7924, 7702, 7775, 7650, 7775, 7830, 7812, 7716, 7816],
    }),
    ((65_539, 2**64 - 1, None), {
        "rounds": 65539, "successes": 65539,
        "basis_choices": [16366, 16466, 16228, 16479],
        "king_outcomes": [[5474, 5467, 5425], [5471, 5532, 5463], [5443, 5465, 5320],
                          [5555, 5387, 5537]],
        "physicist_outcomes": [7231, 7304, 7151, 7454, 7209, 7284, 7133, 7419, 7354],
    }),
]


@pytest.mark.parametrize(("args", "data"), PINNED_SIMULATIONS)
def test_simulate_output_is_pinned(args, data):
    rounds, seed, basis = args
    argv = ["simulate", "--rounds", str(rounds), "--seed", str(seed)]
    report = run_optimized(argv + ([] if basis is None else ["--basis", str(basis)]))
    assert report["data"] == data


class TestTables:
    def test_mixing_matrix_entry(self, capsys):
        _, report = run_json(capsys, ["tables"])
        re, im = report["data"]["mixing_matrix"][1][2]
        expected = OMEGA**2 / np.sqrt(3)
        assert complex(re, im) == pytest.approx(expected)

    def test_inference_row_for_outcome_three(self, capsys):
        _, report = run_json(capsys, ["tables"])
        assert report["data"]["inference_table"][3] == [1, 0, 1, 2]

    def test_overlap_summary(self, capsys):
        _, report = run_json(capsys, ["tables"])
        summary = report["data"]["overlap_by_matches"]
        assert summary["1"] == 0.0
        assert summary["0"] == pytest.approx(-1 / 3)
        assert summary["4"] == 1.0

    def test_text_mode_prints_symbolic_tags(self, capsys):
        code = main(["tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x/√3" in out and "x^2/√3" in out and "1/√3" in out

    def test_symbolic_format_prints_other_entries_as_numbers(self):
        # -1/√3 is no power of ω over √3
        assert _format_symbolic(-(3**-0.5) + 0j) == "-0.57735+0i"


class TestSimulate:
    def test_all_rounds_succeed(self, capsys):
        code, report = run_json(capsys, ["simulate", "--rounds", "500", "--seed", "7"])
        assert code == 0
        assert report["data"]["successes"] == 500
        assert sum(report["data"]["physicist_outcomes"]) == 500

    def test_identical_seeds_identical_reports(self, capsys):
        argv = ["simulate", "--rounds", "1000", "--seed", "42"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert json.dumps(strip_timing(first)) == json.dumps(strip_timing(second))
        assert first["config"] == {
            "rounds": 1000, "seed": 42, "basis": None, "format": "json",
        }

    def test_forced_basis(self, capsys):
        _, report = run_json(capsys, ["simulate", "--rounds", "200", "--basis", "3"])
        assert report["data"]["basis_choices"] == [0, 0, 0, 200]

    def test_king_outcomes_near_uniform(self, capsys):
        n = 9000
        _, report = run_json(capsys, ["simulate", "--rounds", str(n), "--seed", "1"])
        grid = np.array(report["data"]["king_outcomes"])
        totals = grid.sum(axis=1)
        for m in range(4):
            bound = 4 * np.sqrt(totals[m] * (1 / 3) * (2 / 3))
            assert np.abs(grid[m] - totals[m] / 3).max() < bound

    def test_rejects_bad_flags(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--basis", "9"])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rounds", "0"],
        ["simulate", "--rounds", "x"],
        ["simulate", "--seed", "-1"],
        ["verify", "--seed", str(2**64)],
        ["simulate", "--basis", "4"],
        ["tables", "--format", "xml"],
        ["trace"],
    ],
    ids=["rounds-0", "rounds-x", "seed--1", "seed-2**64", "basis-4", "format-xml",
         "unknown-command"],
)
def test_bad_flags_exit_2_with_an_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert any(line.startswith("error:") or ": error:" in line for line in lines)
    assert "Traceback" not in captured.err


class TestSearchBases:
    def test_count_reference_and_recertification(self, capsys):
        code, report = run_json(capsys, ["search-bases"])
        assert code == 0
        assert report["data"]["count"] == 72
        ref = report["data"]["reference_index"]
        assert ref is not None
        listed = [tuple(lab) for lab in report["data"]["bases"][ref]]
        assert set(listed) == set(map(tuple, map(list, brackets.PHYSICIST_LABELS)))
        names = {c["name"]: c["pass"] for c in report["checks"]}
        assert names["search-reference-present"]
        assert names["search-recertification"]
        assert names["search-coverage"]
        assert names["search-certainty"]

    def test_positions_come_from_the_one_derivation(self, monkeypatch):
        # search-coverage, search-recertification and the listed labels read
        # the cached search's positions: once it has run, no label-position
        # pass, and one search
        def refused(*args):
            raise AssertionError("cmd_search re-derived label positions")

        _clear_caches()
        brackets._search()
        monkeypatch.setattr(brackets, "_label_index", refused)
        for _ in range(2):
            checks, data = COMMANDS["search-bases"][0](RunConfig("search-bases"))
            assert all(c.passed for c in checks) and data["count"] == 72
        assert brackets._search.cache_info().misses == 1
        _clear_caches()


class TestTomography:
    def test_maximally_mixed(self, capsys):
        code, report = run_json(capsys, ["tomography", "--state", "mixed"])
        assert code == 0
        table = np.array(report["data"]["probabilities"])
        assert table == pytest.approx(np.full((4, 3), 1 / 3))
        assert report["data"]["reconstruction_error"] < 1e-12

    def test_pure_reference_state(self, capsys):
        _, report = run_json(capsys, ["tomography", "--state", "pure"])
        table = np.array(report["data"]["probabilities"])
        assert table[0] == pytest.approx([1, 0, 0])
        assert table[1:] == pytest.approx(np.full((3, 3), 1 / 3))

    def test_random_seed_round_trip(self, capsys):
        code, report = run_json(capsys, ["tomography", "--seed", "31"])
        assert code == 0
        assert report["data"]["source"] == "random"
        assert report["data"]["reconstruction_error"] < 1e-10
        assert report["config"]["state"] == "random"

    def test_density_encoding_is_re_im_pairs(self, capsys):
        _, report = run_json(capsys, ["tomography", "--state", "mixed"])
        density = report["data"]["density"]
        assert density[0][0] == [pytest.approx(1 / 3), 0.0]
