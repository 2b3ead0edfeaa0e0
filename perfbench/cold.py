"""Cold start of retroking: import it and build every table it reads.

``python -m perfbench.cold <root>`` times one cold start in a fresh process
and prints ``{"setup_s": ...}``.  Only ``time`` is imported before the clock
starts, so numpy and the standard modules retroking needs count as set-up.
"""

import time


def import_library(root: str):
    """Import retroking, refusing any copy other than the one under root/src."""
    from pathlib import Path

    import retroking
    from retroking import cli, protocol

    source = Path(retroking.__file__).resolve()
    if Path(root).resolve() / "src" not in source.parents:
        raise SystemExit(f"retroking was imported from {source}, not from {root}/src")
    return retroking, cli, protocol


def build_tables(retroking, protocol) -> None:
    """The first build of the MUBs, the psi basis, the physicist basis and
    the round-engine tables (which the first round builds)."""
    retroking.build_qutrit_mubs()
    retroking.build_psi_basis()
    retroking.build_physicist_basis()
    protocol.run_round(0, protocol.round_stream(0, 0))


def main(root: str) -> None:
    began = time.perf_counter()
    retroking, _, protocol = import_library(root)
    build_tables(retroking, protocol)
    elapsed = time.perf_counter() - began
    import json

    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    import sys

    main(sys.argv[1])
