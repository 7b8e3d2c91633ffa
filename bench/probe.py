"""Set-up probe: time ``import symell`` plus a workload's first call in a fresh process.

Usage: probe.py <workload> <json call spec> <report directory>

Prints one JSON object: the module file, the import time and the first-call
time, both in seconds.  Only the standard library is imported before the
clock starts, so nothing that symell needs is loaded in advance.
"""

import contextlib
import io
import json
import os
import sys
import time


def _first_call(workload, spec, outdir):
    import symell

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if workload == "dispatch-mixed":
            kind, args, tol = spec
            symell.evaluate(symell.EvalRequest(kind, tuple(args), tol))
            return 0
        if workload == "verify-containment":
            from symell import cli
            return cli.main(["verify", "--cases", "C1", "--samples", "1",
                             "--seed", str(spec), "--out", os.path.join(outdir, "probe")])
        if workload == "verify-fuzz":
            from symell import bounds, harness
            harness.run_bounds_fuzz(bounds.INEQ_TAGS[0], 1, spec)
            harness.run_identities(spec, 1, which=harness.IDENTITY_TAGS[:1])
            return 0
        from symell import cli
        return cli.main(spec)


def main():
    workload, spec, outdir = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    import symell
    t1 = time.perf_counter()
    status = _first_call(workload, spec, outdir)
    t2 = time.perf_counter()
    print(json.dumps({"file": symell.__file__, "import_s": t1 - t0,
                      "first_call_s": t2 - t1, "status": status}))


if __name__ == "__main__":
    main()
