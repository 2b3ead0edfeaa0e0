"""Command-line front end.

Subcommands: ``verify`` (full invariant suites), ``tables`` (reference
matrices, labels, inference and overlap tables), ``simulate`` (seeded Monte
Carlo rounds), ``search-bases`` (all valid final-measurement label sets),
``tomography`` (probability table and reconstruction round trip).

All output goes to stdout; reports are deterministic for a fixed command,
flags, and seed, apart from the ``timing`` field.
"""

import json
import sys
import time

import numpy as np

from . import brackets, mub, protocol
from .linalg import TOL, ContractViolation, _as_instance, _index, _Record
from .mub import OMEGA
from .reporting import Check, within

TOMOGRAPHY_STATES = ("random", "mixed", "pure")


class RunConfig(_Record):
    __slots__ = ("command", "rounds", "seed", "basis", "format", "state")
    __eq__ = _Record._value_eq
    __hash__ = _Record._value_hash

    def __init__(self, command: str, rounds: int = 10_000, seed: int = 0,
                 basis: int | None = None, format: str = "text", state: str = "random"):
        if not isinstance(command, str) or command not in COMMANDS:
            raise ContractViolation(f"unknown command {command!r}")
        rounds = _index(rounds, 2**64 + 1, "rounds", start=1)
        seed = _index(seed, 2**64, "seed")
        if basis is not None:
            basis = _index(basis, 4, "basis")
        if not isinstance(format, str) or format not in ("text", "json"):
            raise ContractViolation(f"unknown format {format!r}")
        if not isinstance(state, str) or state not in TOMOGRAPHY_STATES:
            raise ContractViolation(f"unknown tomography state {state!r}")
        super().__init__(command, rounds, seed, basis, format, state)


def _matrix_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _format_complex(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}i"


_SYMBOLS = ((1.0 + 0.0j, "1"), (OMEGA, "x"), (OMEGA**2, "x^2"))


def _format_symbolic(z: complex) -> str:
    for value, symbol in _SYMBOLS:
        if abs(z * np.sqrt(3) - value) < 1e-9:
            return f"{symbol}/√3"
    return _format_complex(z)


def _print_matrix(rows: list[list[list[float]]], symbolic: bool) -> None:
    fmt = _format_symbolic if symbolic else _format_complex
    cells = [[fmt(complex(re, im)) for re, im in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  [ " + "  ".join(c.rjust(width) for c in row) + " ]")


def _guarded(call, *args, name="construction", said: set[str]) -> tuple[list[Check], dict]:
    """``call(*args)``, a (checks, data) pair.  A builder that raises inside it
    is a failed construction, not a bad argument (RunConfig has checked
    those): its message goes to stderr unless ``said``, the messages the run
    has printed, holds it, and the pair is the one failing check ``name`` and no data."""
    try:
        return call(*args)
    except (RuntimeError, ContractViolation) as exc:
        if str(exc) not in said:
            said.add(str(exc))
            print(f"error: {exc}", file=sys.stderr)
        return [Check(name, False, 1.0)], {}


def cmd_verify(config: RunConfig) -> tuple[list[Check], dict]:
    rng = np.random.default_rng(config.seed)
    checks, said = [], set()
    # one guard per suite, so a suite that fails to build leaves the others'
    # checks; each names its failure apart, so a report's check names are unique
    suites = {"mub": lambda: mub.invariant_checks(rng), "brackets": brackets.invariant_checks,
              "protocol": protocol.invariant_checks}
    for name, suite in suites.items():
        checks += _guarded(lambda: (suite(), {}), name=f"{name}-construction", said=said)[0]
    return checks, {"tolerance": TOL}


def cmd_tables(config: RunConfig) -> tuple[list[Check], dict]:
    matrices = mub.qutrit_basis_matrices()
    data = {
        "basis_matrices": [_matrix_json(m) for m in matrices],
        "mixing_matrix": _matrix_json(mub.fourier_matrix()),
        "physicist_labels": [list(lab) for lab in brackets.PHYSICIST_LABELS],
        "inference_table": [
            [brackets.infer(m, j) for m in range(4)] for j in range(9)
        ],
        "overlap_by_matches": {str(c): brackets.overlap_law(c) for c in range(5)},
    }
    # the printed tables, against the round engine's bins and the bracket Gram
    wrong = sum(inferred != k or k != brackets.infer(m, j)
                for m, k, j, inferred in protocol.round_outcomes().tolist())
    printed = np.array([data["overlap_by_matches"][str(c)] for c in range(5)])
    checks = [
        Check("tables-inference", wrong == 0, float(wrong)),
        within("tables-overlap-law",
               np.abs(brackets.bracket_gram() - printed[brackets.agreement_matrix()])),
    ]
    return checks, data


def cmd_simulate(config: RunConfig) -> tuple[list[Check], dict]:
    king_grid, physicist, successes, mismatches = protocol.tally_rounds(
        config.rounds, config.seed, config.basis
    )
    failures = config.rounds - successes
    data = {
        "rounds": config.rounds,
        "successes": successes,
        "basis_choices": king_grid.sum(axis=1).tolist(),
        "king_outcomes": king_grid.tolist(),
        "physicist_outcomes": physicist.tolist(),
    }
    # conservation: each printed tally counts every round once
    totals = (king_grid.sum(), sum(data["basis_choices"]), sum(data["physicist_outcomes"]))
    miscount = sum(abs(int(t) - config.rounds) for t in totals)
    miscount += abs(len(data["physicist_outcomes"]) - 9)
    checks = [
        Check("retrodiction-success", failures == 0, float(failures)),
        protocol.word_constants_check(),
        Check("simulate-replay", mismatches == 0, float(mismatches)),
        Check("simulate-tally", miscount == 0, float(miscount)),
    ]
    return checks, data


def cmd_search(config: RunConfig) -> tuple[list[Check], dict]:
    checks, reference_index, digits = brackets.search_report()
    data = {"count": len(digits), "reference_index": reference_index, "bases": digits.tolist()}
    return checks, data


def cmd_tomography(config: RunConfig) -> tuple[list[Check], dict]:
    mubs = mub.build_qutrit_mubs()
    if config.state == "random":
        rho = mub.random_density_matrix(np.random.default_rng(config.seed))
    elif config.state == "mixed":
        rho = mub.DensityMatrix(np.eye(3) / 3.0)
    else:
        rho = mub.DensityMatrix(np.diag([1.0, 0.0, 0.0]))
    table = mub.probabilities_from_density(rho, mubs)
    rebuilt = mub.density_from_probabilities(table, mubs)
    error = float(np.abs(rebuilt.entries - rho.entries).max())
    checks = [within("tomography-reconstruction", error)]
    data = {
        "source": config.state,
        "density": _matrix_json(rho.entries),
        "probabilities": table.values.tolist(),
        "reconstruction_error": error,
    }
    return checks, data


def run(config: RunConfig) -> dict:
    """Execute one command and assemble its report."""
    _as_instance(config, RunConfig, "config")
    started = time.perf_counter()
    checks, data = _guarded(COMMANDS[config.command][0], config, said=set())
    elapsed = time.perf_counter() - started
    echo = {"rounds": config.rounds, "seed": config.seed, "basis": config.basis,
            "format": config.format}
    if config.command == "tomography":
        echo["state"] = config.state
    return {
        "command": config.command,
        "config": echo,
        "checks": [
            {"name": c.name, "pass": c.passed, "max_deviation": c.max_deviation}
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
        "data": data,
        "timing": {"elapsed_seconds": elapsed},
    }


def _render_tables(data: dict) -> None:
    for i, matrix in enumerate(data["basis_matrices"], start=1):
        print(f"basis {i} (columns are its kets in the reference basis):")
        _print_matrix(matrix, symbolic=True)
        _print_matrix(matrix, symbolic=False)
    print("trio mixing matrix:")
    _print_matrix(data["mixing_matrix"], symbolic=True)
    _print_matrix(data["mixing_matrix"], symbolic=False)
    print("physicist basis labels and inference table (outcome j, king basis m):")
    print("   j  label    m=0 m=1 m=2 m=3")
    for j, (label, row) in enumerate(zip(data["physicist_labels"], data["inference_table"])):
        digits = "".join(str(d) for d in label)
        print(f"   {j}  [{digits}]   " + "   ".join(str(k) for k in row))
    print("bracket-state overlap by number of agreeing label coordinates:")
    for c in range(5):
        value = data["overlap_by_matches"][str(c)]
        print(f"   {c} matches -> {value:+.6g}")


def _render_simulate(data: dict) -> None:
    print(f"rounds: {data['rounds']}   successes: {data['successes']}")
    print(f"king basis choices: {data['basis_choices']}")
    print("king outcomes per basis:")
    for m, row in enumerate(data["king_outcomes"]):
        print(f"   m={m}: {row}")
    print(f"physicist outcomes: {data['physicist_outcomes']}")


def _render_search(data: dict) -> None:
    print(f"valid label sets: {data['count']}")
    print(f"reference set index: {data['reference_index']}")
    for i, labels in enumerate(data["bases"]):
        digits = " ".join("".join(str(d) for d in lab) for lab in labels)
        marker = "  <- reference" if i == data["reference_index"] else ""
        print(f"   {i:2d}: {digits}{marker}")


def _render_tomography(data: dict) -> None:
    print(f"source state: {data['source']}")
    print("density matrix:")
    _print_matrix(data["density"], symbolic=False)
    print("probability table (rows: bases 0..3):")
    for row in data["probabilities"]:
        print("   " + "  ".join(f"{p:.6f}" for p in row))
    print(f"reconstruction error: {data['reconstruction_error']:.3e}")


# name -> (handler, text renderer of its data or None, help line)
COMMANDS = {
    "verify": (cmd_verify, None, "run every invariant suite and report deviations"),
    "tables": (cmd_tables, _render_tables,
               "emit the reference matrices, labels, and overlap tables"),
    "simulate": (cmd_simulate, _render_simulate, "run seeded Monte Carlo protocol rounds"),
    "search-bases": (cmd_search, _render_search,
                     "enumerate all valid final-measurement label sets"),
    "tomography": (cmd_tomography, _render_tomography,
                   "reconstruct a density matrix from its probability table"),
}


def render_text(report: dict) -> None:
    print(f"retroking {report['command']}")
    print(f"config: {json.dumps(report['config'])}")
    renderer = COMMANDS[report["command"]][1]
    if renderer is not None and report["data"]:
        renderer(report["data"])
    for check in report["checks"]:
        flag = "PASS" if check["pass"] else "FAIL"
        print(f"check {check['name']:<28} max deviation {check['max_deviation']:.3e}  {flag}")
    print(f"result: {'PASS' if report['pass'] else 'FAIL'}")
    print(f"elapsed: {report['timing']['elapsed_seconds']:.3f}s")


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only a call that parses pays for it

    parser = argparse.ArgumentParser(
        prog="retroking",
        description="Two-qutrit retrodiction protocol: verification, tables, "
        "simulation, basis search, and tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags left out stay out of the namespace, so RunConfig alone holds defaults
    for name, (_, _, help_line) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--seed", type=int, help="random seed (default 0)")
        cmd.add_argument("--format", choices=("text", "json"),
                         help="report format (default text)")
        if name == "simulate":
            cmd.add_argument("--rounds", type=int, help="number of rounds (default 10000)")
            cmd.add_argument("--basis", type=int, choices=range(4),
                             help="force the king's basis (default: random per round)")
        if name == "tomography":
            cmd.add_argument("--state", choices=TOMOGRAPHY_STATES,
                             help="source density matrix (default random)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run(config)
    if config.format == "json":
        print(json.dumps(report, indent=2))
    else:
        render_text(report)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
