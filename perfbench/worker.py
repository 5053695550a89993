"""One workload process: run rabi2q CLI commands in-process and time them.

Usage: python worker.py SPEC.json RESULT.json

SPEC holds {"commands": [[arg, ...], ...], "trace": path or null}.  The
process is started fresh by run.py, which times its start against
``ready`` (CLOCK_MONOTONIC is shared by all processes) and reads its CPU
time and peak memory from wait4.  With a trace path, the layers are wrapped
before the first command and the spans are written there at the end.
"""

import json
import sys
import time


def main(spec_path: str, result_path: str) -> None:
    import rabi2q.cli as cli

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    commands = [list(map(str, argv)) for argv in spec["commands"]]
    tracer = None
    if spec.get("trace"):
        from rabi2q import dynamics, eigenstates, hamiltonian, model, spectra
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "dynamics": dynamics,
                        "eigenstates": eigenstates,
                        "hamiltonian": hamiltonian, "model": model,
                        "spectra": spectra})
    ready = time.monotonic()

    runs = []
    for argv in commands:
        start = time.perf_counter()
        status = cli.main(argv)
        runs.append({"status": status, "wall_s": time.perf_counter() - start})

    result = {"ready": ready, "runs": runs}
    if tracer is not None:
        tracer.uninstall()
        with open(spec["trace"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
