"""Fresh-interpreter measurements; run.py starts this as a child process.

    python3 perfbench/cold.py setup <workload> <seed>
        time `import barnesg`, then the workload's first call
    python3 perfbench/cold.py scipy
        time a fresh `import scipy.special` alone

Each prints one JSON object with the raw times and the calibration scale
measured right after them (see calibration.py); the calibration kernel
loads NumPy, so it runs only once the timed imports are done.  The parent
puts the checkout's src/ first on PYTHONPATH.
"""

import json
import sys
import time


def main(argv: list[str]) -> None:
    if argv == ["scipy"]:
        t0 = time.perf_counter()
        import scipy.special  # noqa: F401
        elapsed = time.perf_counter() - t0
        import calibration
        print(json.dumps({"import_scipy_s": elapsed, "scale": calibration.scale(calibration.ONE_OFF_REPS)}))
        return
    _, name, seed = argv
    t0 = time.perf_counter()
    import barnesg
    t1 = time.perf_counter()
    import workloads  # after the timed import: it loads stdlib modules barnesg also needs

    wl = workloads.WORKLOADS[name]
    first = next(wl.passes(int(seed)))[0]
    t2 = time.perf_counter()
    wl.run(barnesg, first)
    t3 = time.perf_counter()
    import calibration
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t3 - t2,
                      "setup_s": (t1 - t0) + (t3 - t2), "scale": calibration.scale(calibration.ONE_OFF_REPS)}))


if __name__ == "__main__":
    main(sys.argv[1:])
