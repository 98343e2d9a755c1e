"""Shared pieces: the model, seeded inputs, the reference check, metadata."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics

import numpy as np

from spec import MODEL, MODEL_SEED

#: Independent random streams drawn from one workload seed.
STREAMS = {"inputs": 1, "warm": 2, "repeats": 3, "schedule": 4}


def stream(seed: int, name: str) -> np.random.Generator:
    """The generator for one named input stream of ``seed``."""
    return np.random.default_rng([int(seed), STREAMS[name]])


def images(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` unit-range images quantized to 1/256, like 8-bit pixels.

    The quantization keeps each HTTP body's JSON short; it changes nothing
    for the model, which only sees unit-range values.
    """
    shape = (n, *MODEL["input_shape"])
    return rng.integers(0, 256, size=shape).astype(np.float64) / 256.0


def disjoint(a: np.ndarray, b: np.ndarray) -> bool:
    """True when no sample of ``a`` equals a sample of ``b``."""
    return not {x.tobytes() for x in a} & {x.tobytes() for x in b}


def build_network():
    """The benchmark's converted network (vgg7 + convert_to_snn)."""
    from repro.convert.converter import convert_to_snn
    from repro.nn.architectures import vgg7

    rng = np.random.default_rng(MODEL_SEED)
    dnn = vgg7(
        input_shape=MODEL["input_shape"],
        num_classes=MODEL["classes"],
        width=MODEL["width"],
        rng=MODEL["weight_seed"],
    )
    return convert_to_snn(dnn, rng.random((MODEL["norm_images"], *MODEL["input_shape"])))


def reference(network, early_firing: bool, batches: list) -> list:
    """The reference engine's result for each batch (untimed)."""
    from repro.coding.ttfs import TTFSCoding
    from repro.snn.engine import Simulator

    sim = Simulator(network, TTFSCoding(window=MODEL["window"], early_firing=early_firing))
    return [sim.run(batch) for batch in batches]


def reference_predictions(network, early_firing: bool, xs: np.ndarray, batch: int = 64):
    """Reference predictions for every sample of ``xs``, plus their results."""
    results = reference(
        network, early_firing, [xs[i : i + batch] for i in range(0, len(xs), batch)]
    )
    return np.concatenate([r.predictions for r in results]), results


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process (all threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _openblas():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


def metadata(seed: int) -> dict:
    """Where and how this run measured: box, library versions, BLAS threads."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas()
    return {
        "seed": int(seed),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": threads() if threads is not None else None,
    }
