"""One fresh-interpreter run of ``softmix run``, started by perfbench/run.py.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [--setup-only]
        [--trace SPANS_JSON] [--machine]

Writes RESULT_JSON with the monotonic time at which ``import softmix.cli``
and ``validate_config`` of CONFIG had finished (the parent subtracts its own
start time to get the set-up time), and, unless ``--setup-only``, the wall
time, CPU time and peak RSS of ``softmix.cli.main(["run", CONFIG, "-o",
OUT_DIR])`` and its exit code.
"""
import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _machine():
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "SOFTMIX_WORKERS": os.environ.get("SOFTMIX_WORKERS", "unset"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--machine", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import softmix.cli
    from softmix.config import validate_config

    with open(args.config) as fh:
        validate_config(fh.read())
    ready = time.monotonic()
    if Path(softmix.__file__).resolve().parent != SRC / "softmix":
        sys.exit(f"softmix imported from {softmix.__file__}, not from {SRC}")

    result = {"ready": ready}
    if args.machine:
        result["machine"] = _machine()
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        rc = softmix.cli.main(["run", args.config, "-o", args.out_dir])
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
