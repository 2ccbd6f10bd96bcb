"""One workload iteration in a fresh interpreter; the parent is run.py.

    python3 perfbench/child.py RESULT.json [--setup-only] [--trace] -- <rootsums CLI args>

Set-up (importing rootsums and its CLI, loading the calibration fixture) ends
at the monotonic time written as ``setup_end``; the parent subtracts its own
spawn time.  ``wall_s`` and ``cpu_s`` cover the CLI call alone.  The result
file also carries every lru_cache counter of the package and, with
``--trace``, the per-function span aggregates.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_info() -> dict:
    import ctypes
    import glob
    import os

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": numpy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            info["blas_threads"] = get()
    return info


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    split = argv.index("--")
    flags, cli_args = argv[1:split], argv[split + 1 :]

    import rootsums
    import rootsums.cli
    from rootsums import calibration

    calibration.load()
    setup_end = time.monotonic()

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(rootsums.__file__).resolve().parent.parent != src:
        print(f"imported rootsums from {rootsums.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_end": setup_end}
    if "--setup-only" in flags:
        result_path.write_text(json.dumps(result))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    tracer = None
    if "--trace" in flags:
        # imports every submodule before the clock starts; an untraced run
        # leaves the imports to the CLI, as a user's call does
        import tracer as tracing

        tracer = tracing.Tracer().install()

    cpu0, t0 = _cpu(), time.monotonic()
    try:
        code = rootsums.cli.main(cli_args)
    finally:
        wall, cpu = time.monotonic() - t0, _cpu() - cpu0
        if tracer is not None:
            tracer.restore()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import tracer as tracing

    caches = tracing.lru_caches(tracing.package_modules())
    result.update(exit_code=code, wall_s=wall, cpu_s=cpu, maxrss_kb=maxrss_kb, caches=tracing.cache_counters(caches))
    result.update(_blas_info())
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.write_spans(result_path.with_suffix(".spans.json"))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
