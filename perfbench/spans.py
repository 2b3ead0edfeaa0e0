"""Span tracing installed from outside the program.

``Tracer.install`` replaces each traced public function by a wrapper in
every ``retroking`` module namespace that holds it, because callers look
functions up there (``protocol`` imports ``born_probabilities`` by name, so
wrapping ``linalg`` alone would miss its calls).  Nothing under ``src/``
changes.  Spans are kept in flat arrays and written out once at the end.
"""

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) of every traced function.  The span name is
# "<layer>.<attribute>"; cli.run spans also carry the command.
TARGETS = (
    ("linalg", "born_probabilities"),
    ("linalg", "project_and_normalize"),
    ("linalg", "inner_product"),
    ("mub", "build_qutrit_mubs"),
    ("mub", "certify_unbiasedness"),
    ("mub", "probabilities_from_density"),
    ("mub", "density_from_probabilities"),
    ("mub", "probability_map_rank"),
    ("mub", "invariant_checks"),
    ("protocol", "bracket_state"),
    ("protocol", "build_physicist_basis"),
    ("protocol", "_round_engine"),
    ("protocol", "infer"),
    ("protocol", "round_stream"),
    ("protocol", "run_round"),
    ("protocol", "simulate_rounds"),
    ("protocol", "exhaustive_verify"),
    ("protocol", "search_bases"),
    ("protocol", "invariant_checks"),
    ("cli", "run"),
    ("cli", "json.dumps"),
)

# Per-layer metrics: (name, unit, span names, statistic).  Statistics:
#   calls      number of spans
#   per_call   self time summed over the span names, over the calls of the first
#   cold       self time of the first span
# A traced step has three phases: set-up, the workload, and a sweep that calls
# every command once.  A statistic uses the workload's spans where it makes
# any, else the sweep's, else set-up's, so that every metric is measured on
# every workload; a cold build is the first span of any phase.
LAYER_METRICS = (
    ("linalg.born_probabilities_us", "us", ("linalg.born_probabilities",), "per_call"),
    ("linalg.born_probabilities_calls", "count", ("linalg.born_probabilities",), "calls"),
    ("linalg.project_and_normalize_us", "us", ("linalg.project_and_normalize",), "per_call"),
    ("linalg.inner_product_calls", "count", ("linalg.inner_product",), "calls"),
    ("mub.build_qutrit_mubs_cold_ms", "ms", ("mub.build_qutrit_mubs",), "cold"),
    ("mub.invariant_checks_ms", "ms", ("mub.invariant_checks",), "per_call"),
    ("mub.tomography_round_trip_us", "us",
     ("mub.density_from_probabilities", "mub.probabilities_from_density"), "per_call"),
    ("mub.tomography_calls", "count", ("mub.density_from_probabilities",), "calls"),
    ("mub.probability_map_rank_ms", "ms", ("mub.probability_map_rank",), "per_call"),
    ("mub.certify_unbiasedness_us", "us", ("mub.certify_unbiasedness",), "per_call"),
    ("protocol.build_physicist_basis_cold_ms", "ms", ("protocol.build_physicist_basis",), "cold"),
    ("protocol.engine_tables_cold_ms", "ms", ("protocol._round_engine",), "cold"),
    ("protocol.simulate_rounds_s", "s", ("protocol.simulate_rounds",), "per_call"),
    ("protocol.round_stream_us", "us", ("protocol.round_stream",), "per_call"),
    ("protocol.round_stream_calls", "count", ("protocol.round_stream",), "calls"),
    ("protocol.run_round_us", "us", ("protocol.run_round",), "per_call"),
    ("protocol.run_round_calls", "count", ("protocol.run_round",), "calls"),
    ("protocol.infer_calls", "count", ("protocol.infer",), "calls"),
    ("protocol.invariant_checks_ms", "ms", ("protocol.invariant_checks",), "per_call"),
    ("protocol.exhaustive_verify_ms", "ms", ("protocol.exhaustive_verify",), "per_call"),
    ("protocol.search_bases_ms", "ms", ("protocol.search_bases",), "per_call"),
    ("protocol.bracket_state_us", "us", ("protocol.bracket_state",), "per_call"),
    ("protocol.bracket_state_calls", "count", ("protocol.bracket_state",), "calls"),
    ("cli.simulate_aggregate_s", "s", ("cli.run:simulate",), "per_call"),
    ("cli.search_recert_ms", "ms", ("cli.run:search-bases",), "per_call"),
    ("cli.verify_self_ms", "ms", ("cli.run:verify",), "per_call"),
    ("cli.json_encode_ms", "ms", ("cli.json.dumps",), "per_call"),
)

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}

# Cached build functions are read only for their first (cold) call; _round_engine is
# looked up once per round, and a span per lookup would only add overhead.
_COLD_ONLY = frozenset(
    names[0] for _, _, names, statistic in LAYER_METRICS if statistic == "cold")


class _Namespace:
    """Stand-in for a module attribute (such as ``cli.json``) whose one
    function is traced; everything else is looked up on the original."""

    def __init__(self, original, name, wrapper):
        self._original = original
        setattr(self, name, wrapper)

    def __getattr__(self, name):
        return getattr(self._original, name)


PHASES = ("setup", "workload", "sweep")
_PREFERENCE = tuple(PHASES.index(phase) for phase in ("workload", "sweep", "setup"))


class Tracer:
    """Records spans (name, start, end, parent, run id) in flat arrays.

    The run id of a span is "<run_id>/<phase>"; set ``phase`` to an index
    into PHASES as the step moves on."""

    def __init__(self, run_id: str):
        self.run_ids = [f"{run_id}/{phase}" for phase in PHASES]
        self.phase = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.run_of = array("l")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.paused = False
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, label=None, cold_only=False):
        """A wrapper of ``fn`` recording one span per call.  ``label`` maps
        the call's arguments to a suffix of the span name; ``cold_only``
        records the first call alone."""
        clock = time.perf_counter_ns
        stack = self._stack
        fixed = self._name_id(name)
        calls = [0]

        def traced(*args, **kwargs):
            if self.paused or (cold_only and calls[0]):
                return fn(*args, **kwargs)
            calls[0] += 1
            index = len(self.start)
            self.name.append(fixed if label is None else self._name_id(f"{name}:{label(args)}"))
            self.run_of.append(self.phase)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(index)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                self.start[index] = began
                self.end[index] = ended

        return functools.update_wrapper(traced, fn)

    def install(self, package: str = "retroking") -> None:
        """Wrap every target where its callers look it up.  A target that
        no longer exists is recorded in ``missing`` and skipped."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for layer, attribute in TARGETS:
            module = sys.modules.get(f"{package}.{layer}")
            owner_name, _, function_name = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, function_name, None)
            if module is None or original is None:
                self.missing.append(f"{layer}.{attribute}")
                continue
            label = (lambda args: args[0].command) if (layer, attribute) == ("cli", "run") else None
            name = f"{layer}.{attribute}"
            wrapper = self.wrap(name, original, label, cold_only=name in _COLD_ONLY)
            if owner_name:
                setattr(module, owner_name, _Namespace(owner, function_name, wrapper))
                continue
            for namespace in modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """The LAYER_METRICS this trace supports, and the names of the absent ones."""
        own = self_times(self.start, self.end, self.parent)
        by_key: dict[tuple[int, str], list[int]] = defaultdict(list)
        cold: dict[str, int] = {}
        for index, nid in enumerate(self.name):
            by_key[(self.run_of[index], self.names[nid])].append(own[index])
            cold.setdefault(self.names[nid], own[index])
        missing = set(self.missing)
        metrics, absent = {}, []
        for metric, unit, span_names, statistic in LAYER_METRICS:
            if any(n.split(":")[0] in missing for n in span_names):
                absent.append(metric)
                continue
            if statistic == "cold":
                first = cold.get(span_names[0])
                if first is None:
                    absent.append(metric)
                else:
                    metrics[metric] = {"value": first * _SCALE[unit], "unit": unit}
                continue
            runs = [r for r in _PREFERENCE if by_key.get((r, span_names[0]))]
            if not runs:
                absent.append(metric)
                continue
            calls = len(by_key[(runs[0], span_names[0])])
            if statistic == "calls":
                value = calls
            else:
                total = sum(sum(by_key.get((runs[0], n), ())) for n in span_names)
                value = total / calls * _SCALE[unit]
            metrics[metric] = {"value": value, "unit": unit}
        return metrics, absent

    def dump(self, path, extra: dict) -> None:
        """Write every span, columnar, as gzip-compressed JSON."""
        document = dict(extra)
        document.update({
            "run_ids": self.run_ids,
            "names": self.names,
            "spans": {
                "run": self.run_of.tolist(),
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
            },
        })
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(document, out, separators=(",", ":"))


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent and overlapping children count once.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, p in enumerate(parent):
        if p >= 0:
            children[p].append(index)
    own = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        reach = lo
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], reach), min(end[k], hi)
            if b > a:
                covered += b - a
                reach = b
        own[p] -= covered
    return own
