"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np

from retroking import (
    ALL_LABELS,
    PHYSICIST_LABELS,
    StateVector,
    bracket_state,
    born_probabilities,
    build_physicist_basis,
    build_psi_basis,
    build_qubit_mubs,
    build_qutrit_mubs,
    certify_unbiasedness,
    density_from_probabilities,
    entangled_forms,
    exhaustive_verify,
    infer,
    inner_product,
    prepare_psi0,
    probabilities_from_density,
    random_density_matrix,
    search_bases,
    simulate_rounds,
    trio_matrix,
)
from retroking.brackets import agreement_matrix, overlap_law
from retroking.cli import main
from retroking.protocol import round_outcomes

from conftest import forced_collapse, sample_many

EXPECTED_BASIS_COUNT = 72  # frozen from the independent clique oracle


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def test_mub_certification():
    with criterion("mub-certification"):
        started = time.perf_counter()
        for family, mubs in (("qutrit", build_qutrit_mubs()), ("qubit", build_qubit_mubs())):
            checks = certify_unbiasedness(mubs)
            assert [c.name for c in checks] == [f"{family}-basis-gram", f"{family}-unbiasedness"]
            assert all(c.passed and c.max_deviation < 1e-12 for c in checks)
        assert time.perf_counter() - started < 1.0


def test_tomography_round_trip():
    with criterion("tomography-round-trip"):
        started = time.perf_counter()
        mubs = build_qutrit_mubs()
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(100):
            rho = random_density_matrix(rng)
            rebuilt = density_from_probabilities(
                probabilities_from_density(rho, mubs), mubs
            )
            worst = max(worst, float(np.abs(rebuilt.entries - rho.entries).max()))
        assert worst < 1e-10
        assert time.perf_counter() - started < 1.0


def test_entangled_form_equivalence():
    with criterion("entangled-form-equivalence"):
        psi0 = prepare_psi0()
        for form in entangled_forms():
            assert abs(inner_product(psi0, form)) >= 1.0 - 1e-12


def test_psi_basis_orthonormality():
    with criterion("psi-basis-orthonormality"):
        psi = build_psi_basis()
        gram = psi.matrix.conj().T @ psi.matrix
        assert np.abs(gram - np.eye(9)).max() < 1e-10


def test_bracket_overlap_law():
    with criterion("bracket-overlap-law"):
        states = np.stack([bracket_state(lab).amps for lab in ALL_LABELS], axis=1)
        gram = states.conj().T @ states
        analytic = overlap_law(agreement_matrix())
        assert np.abs(gram.imag).max() < 1e-10
        assert np.abs(gram - analytic).max() < 1e-10


def test_bracket_defining_property():
    with criterion("bracket-defining-property"):
        trios = trio_matrix()
        for label in ALL_LABELS:
            state = bracket_state(label)
            for m in range(4):
                for k in range(3):
                    overlap = inner_product(StateVector(trios[3 * m + k]), state)
                    if k == label[m]:
                        assert abs(abs(overlap) ** 2 - 1 / 3) < 1e-10
                    else:
                        assert abs(overlap) < 1e-10


def test_protocol_certainty():
    with criterion("protocol-certainty"):
        started = time.perf_counter()
        assert exhaustive_verify().passed
        assert len(round_outcomes()) == 36  # 12 collapse cases x 3 possible outcomes
        records = simulate_rounds(100_000, seed=42)
        assert sum(r.success for r in records) == 100_000
        assert time.perf_counter() - started < 10.0


def test_physicist_outcome_statistics():
    with criterion("physicist-outcome-statistics"):
        physicist = build_physicist_basis()
        rng = np.random.default_rng(1618)
        rounds = 100_000
        bound = 4 * np.sqrt(rounds * (1 / 3) * (2 / 3))
        for m in range(4):
            for k in range(3):
                drawn, collapsed = forced_collapse(m, k)
                assert drawn == k
                probs = born_probabilities(collapsed, physicist.basis)
                outcomes = sample_many(probs, rng, rounds)
                counts = np.bincount(outcomes, minlength=9)
                compatible = [j for j in range(9) if physicist.labels[j][m] == k]
                assert counts[[j for j in range(9) if j not in compatible]].sum() == 0
                assert np.abs(counts[compatible] - rounds / 3).max() < bound


def clique_oracle_sets() -> set[tuple[tuple[int, ...], ...]]:
    """Independent enumeration: the 9-vertex maximal cliques of the 81-label
    agreement graph, each as a sorted tuple of labels."""
    graph = nx.Graph()
    labels = list(itertools.product(range(3), repeat=4))
    graph.add_nodes_from(range(len(labels)))
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            if sum(x == y for x, y in zip(labels[a], labels[b])) == 1:
                graph.add_edge(a, b)
    cliques = list(nx.find_cliques(graph))
    assert max(len(c) for c in cliques) == 9
    return {tuple(sorted(labels[i] for i in c)) for c in cliques if len(c) == 9}


def test_basis_search():
    with criterion("basis-search"):
        started = time.perf_counter()
        sets = search_bases()
        assert tuple(sorted(PHYSICIST_LABELS)) in sets
        for labels in sets:
            grid = np.stack([bracket_state(lab).amps for lab in labels], axis=1)
            assert np.abs(grid.conj().T @ grid - np.eye(9)).max() < 1e-10
        assert len(sets) == EXPECTED_BASIS_COUNT
        oracle = clique_oracle_sets()
        assert set(sets) == oracle
        # every set runs over (k0, k1) once: sorted member i has (k0, k1) = divmod(i, 3)
        for labels in oracle:
            assert [label[:2] for label in labels] == [divmod(i, 3) for i in range(9)]
        assert time.perf_counter() - started < 30.0


def test_simulate_determinism(capsys):
    with criterion("simulate-determinism"):
        argv = ["simulate", "--rounds", "1000", "--seed", "42", "--format", "json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("timing")
        second.pop("timing")
        assert json.dumps(first) == json.dumps(second)


def test_inference_always_names_the_kings_result():
    # cross-cutting sanity on top of the listed criteria: the inference rule
    # agrees with the compatibility pattern for every basis and outcome
    with criterion("inference-consistency"):
        physicist = build_physicist_basis()
        trios = trio_matrix()
        for m in range(4):
            for k in range(3):
                probs = born_probabilities(StateVector(trios[3 * m + k]), physicist.basis)
                for j in np.flatnonzero(probs > 1e-10):
                    assert infer(m, int(j), physicist) == k
