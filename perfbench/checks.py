"""Output checks that hold for any correct implementation.

Nothing here compares ``simulate`` output byte for byte: a new random
stream is a legitimate change.  The checks test the invariants the paper
states instead, and each returns a list of problems (empty when the output
is right).
"""

import hashlib
import json

# Chi-square critical values at false-alarm probability 1e-9, so that the
# thousands of tests a full benchmark campaign makes raise no false alarm,
# while a bias of a few percent over 10^4 rounds still fails clearly.
CHI2_CRITICAL = {2: 41.45, 8: 58.31}

EXPECTED_VERIFY_CHECKS = frozenset({
    "qutrit-basis-gram", "qutrit-unbiasedness", "qubit-basis-gram",
    "qubit-unbiasedness", "tomography-round-trip", "probability-map-rank",
    "entangled-four-forms", "psi-basis-gram", "mixing-unitarity",
    "paired-orthogonality", "trio-reconstruction", "bracket-trio-selectivity",
    "bracket-overlap-law", "physicist-basis-gram", "retrodiction-certainty",
})

SEARCH_COUNT = 72
REFERENCE_SET = (
    (0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2), (1, 0, 1, 2), (1, 1, 2, 0),
    (1, 2, 0, 1), (2, 0, 2, 1), (2, 1, 0, 2), (2, 2, 1, 0),
)
# sha256 of the canonical (sorted) list of the 72 label sets, see search_digest.
SEARCH_DIGEST = "44f45861e8a8da7d252a90054c0c2657e2457de43c501596710d83ff8340ac07"

TOMOGRAPHY_TOLERANCE = 1e-10


def chi2_uniform(counts) -> float:
    """Pearson chi-square of counts against equal cell probabilities."""
    total = sum(counts)
    if total == 0:
        return 0.0
    expected = total / len(counts)
    return sum((c - expected) ** 2 for c in counts) / expected


def outcome_problems(king_outcomes, physicist_outcomes) -> list[str]:
    """Per-basis king outcomes uniform over 3, physicist outcomes over 9."""
    problems = []
    for m, row in enumerate(king_outcomes):
        stat = chi2_uniform(row)
        if stat > CHI2_CRITICAL[2]:
            problems.append(f"king outcomes in basis {m}: chi2 {stat:.1f}")
    stat = chi2_uniform(physicist_outcomes)
    if stat > CHI2_CRITICAL[8]:
        problems.append(f"physicist outcomes: chi2 {stat:.1f}")
    return problems


def _report_flag_problems(report: dict, command: str) -> list[str]:
    problems = []
    if report.get("command") != command:
        problems.append(f"report is for {report.get('command')!r}, want {command!r}")
    if report.get("pass") is not True:
        problems.append("report does not pass")
    failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    if failing:
        problems.append(f"failing checks: {failing}")
    return problems


def _simulate_structure_problems(report: dict, rounds: int) -> list[str]:
    """Everything wrong with a simulate report apart from failed rounds."""
    problems = []
    if report.get("command") != "simulate":
        problems.append(f"report is for {report.get('command')!r}, want 'simulate'")
    data = report["data"]
    if data["rounds"] != rounds:
        problems.append(f"report covers {data['rounds']} rounds, want {rounds}")
    if report.get("pass") is not (data["successes"] == rounds):
        problems.append("pass flag disagrees with the success count")
    king = data["king_outcomes"]
    if [sum(row) for row in king] != list(data["basis_choices"]):
        problems.append("king outcome rows do not add up to the basis choices")
    if sum(map(sum, king)) != rounds:
        problems.append(f"king outcomes sum to {sum(map(sum, king))}, want {rounds}")
    if sum(data["physicist_outcomes"]) != rounds:
        problems.append(
            f"physicist outcomes sum to {sum(data['physicist_outcomes'])}, want {rounds}")
    if rounds >= 1000:
        problems += outcome_problems(king, data["physicist_outcomes"])
    return problems


def simulate_failures(report: dict, rounds: int) -> tuple[int, list[str]]:
    """(failed rounds, problems) of one simulate report.  Each retrodiction
    failure fails its round; a report that breaks any other invariant cannot
    vouch for any of its rounds, so all of them fail."""
    structural = _simulate_structure_problems(report, rounds)
    failed_rounds = rounds - report["data"]["successes"]
    problems = structural + ([f"{failed_rounds} retrodiction failures"] if failed_rounds else [])
    return (rounds if structural else failed_rounds), problems


def verify_problems(report: dict) -> list[str]:
    problems = _report_flag_problems(report, "verify")
    names = {c["name"] for c in report.get("checks", [])}
    missing = EXPECTED_VERIFY_CHECKS - names
    if missing:
        problems.append(f"verify lacks checks {sorted(missing)}")
    return problems


def search_digest(bases) -> str:
    canonical = sorted(sorted(tuple(label) for label in labels) for labels in bases)
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def search_problems(report: dict) -> list[str]:
    problems = _report_flag_problems(report, "search-bases")
    bases = report["data"]["bases"]
    if len(bases) != SEARCH_COUNT or report["data"]["count"] != SEARCH_COUNT:
        problems.append(f"{len(bases)} label sets, want {SEARCH_COUNT}")
    if tuple(sorted(REFERENCE_SET)) not in {tuple(sorted(map(tuple, b))) for b in bases}:
        problems.append("the reference label set is missing")
    if report["data"]["reference_index"] is None:
        problems.append("no reference index")
    if search_digest(bases) != SEARCH_DIGEST:
        problems.append("label sets differ from the canonical 72")
    return problems


def tomography_problems(report: dict) -> list[str]:
    problems = _report_flag_problems(report, "tomography")
    error = report["data"]["reconstruction_error"]
    if not 0.0 <= error < TOMOGRAPHY_TOLERANCE:
        problems.append(f"reconstruction error {error:.3e}")
    return problems


def report_problems(report: dict, rounds: int | None = None) -> list[str]:
    """Problems of any report a workload produces."""
    command = report.get("command")
    if command == "simulate":
        return simulate_failures(report, rounds)[1]
    if command == "verify":
        return verify_problems(report)
    if command == "search-bases":
        return search_problems(report)
    if command == "tomography":
        return tomography_problems(report)
    return [f"unexpected report for {command!r}"]

