"""Child process for the traced run: one `elldens` CLI command under the span
wrappers of tracing.py.

    python3 bench/traced_cli.py <summary.json> <elldens arguments...>

The command's output goes to stdout unchanged.  The summary file gets the
time to import `elldens.cli` and the self time of `cli.main` (parsing,
rendering and writing: its duration minus the wrapped library calls); the
spans go next to it.
"""
import json
import sys
import time

from common import init_process
from tracing import Tracer, install


def main() -> int:
    init_process()
    summary, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import elldens.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    sid = tracer.open("cli.main")
    try:
        code = elldens.cli.main(argv)
    finally:
        tracer.close(sid)
    sys.stdout.flush()
    with open(summary, "w") as fh:
        json.dump({"import_s": import_s, "main_self_s": tracer.self_seconds("cli.main"),
                   "exit_code": code}, fh)
    tracer.write_spans(summary[:-len(".json")] + ".spans.tsv.gz")
    return code


if __name__ == "__main__":
    sys.exit(main())
