"""One fresh interpreter per measurement.

    python3 perfbench/child.py setup ROOT P,E [P,E ...]
        import mtcodes and build every listed Field; print one JSON line
        with the seconds this took, measured inside the interpreter.
    python3 perfbench/child.py cli ROOT TRACE ARG...
        run ``mtcodes.cli.main(ARG...)`` with stdout captured and print one
        JSON line: the monotonic clock at the call (the parent subtracts
        its own clock at spawn to get the set-up time), the call's
        duration, its exit code and output, peak RSS, and with TRACE=1 the
        spans of the call.

Both also report kernel times sampled in this interpreter after the
measurement (see speed.py).  Imports stay minimal before the timed points
so that the set-up time is the program's, not this script's.
"""

import io
import os
import sys
import time

# sys.path[0] is this script's directory, so speed and spans import from it.


def main() -> int:
    mode, root = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    if mode == "setup":
        t0 = time.perf_counter()
        from mtcodes import field

        for spec in sys.argv[3:]:
            p, e = spec.split(",")
            field(int(p), int(e))
        setup_s = time.perf_counter() - t0
        import json

        import speed

        print(json.dumps({"setup_s": setup_s, "kernel": speed.samples_for(setup_s)}))
        return 0

    trace, argv = sys.argv[3] == "1", sys.argv[4:]
    from mtcodes import cli

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    buf = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, buf
    try:
        t_call = time.monotonic()
        if tracer:
            tracer.begin_op(0, argv[0])
        try:
            rc = cli.main(argv)
        finally:
            if tracer:
                tracer.end_op()
        op_s = time.monotonic() - t_call
    finally:
        sys.stdout = real_stdout

    import json
    import resource

    import speed

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "t_call": t_call,
        "op_s": op_s,
        "rc": rc,
        "out": buf.getvalue(),
        "rss_kb": rss_kb,
        "kernel": speed.samples_for(op_s),
        "spans": tracer.spans if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
