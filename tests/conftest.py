import ctypes
import glob
import itertools
import os

import numpy as np
import pytest

from crffw import CrfInstance, DenseMatrix, EdgeList, GaussianKernel, potts_matrix

pytest_plugins = ("pytester",)  # tests/test_conftest.py runs sessions of its own
NUMERIC_ENV = os.path.join(os.path.dirname(__file__), "data", "NUMERIC_ENV")


def _openblas_core():
    """The core OpenBLAS picked on this CPU, from the library numpy
    bundles (a wheel's numpy.libs or .dylibs), or "unknown"."""
    root = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                 + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_config is not None:
                # "OpenBLAS <version> <build flags> <core> MAX_THREADS=<n>"
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                words = get_config().decode().split()
                return words[-2] if words[-1].startswith("MAX_THREADS=") else words[-1]
    return "unknown"


def _numeric_env():
    with open(NUMERIC_ENV, encoding="utf-8") as fh:
        return fh.read().splitlines()


def pytest_report_header(config):
    """The machine code numpy and OpenBLAS run here, beside the one the
    goldens were written under: a golden that differs in its last bits
    on another host may be other code paths, not drift.  Reads only;
    anything it cannot read shows as "unknown"."""
    def read(what, default="unknown"):
        try:
            return what()
        except Exception:  # a header must not fail the session
            return default

    info = read(lambda: np.show_config(mode="dicts"))
    simd = read(lambda: info["SIMD Extensions"])
    blas = read(lambda: info["Build Dependencies"]["blas"])
    lines = [f"numpy {np.__version__}: SIMD baseline {read(lambda: ' '.join(simd['baseline']))}, "
             f"dispatch found {read(lambda: ' '.join(simd['found']))}",
             f"BLAS {read(lambda: blas['name'])} {read(lambda: blas['version'])}, "
             f"OpenBLAS core {read(_openblas_core)}"]
    lines += [f"{var}={os.environ[var]}" for var in ("OPENBLAS_CORETYPE",
                                                      "NPY_DISABLE_CPU_FEATURES")
              if var in os.environ]
    return lines + read(_numeric_env, [f"{NUMERIC_ENV}: unknown"])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """On a run with a failed test, the header's lines again at the end:
    `-q` hides the header, and a golden that moved in its last bits may
    be other machine code, not drift.  Reads only."""
    if terminalreporter.stats.get("failed") or terminalreporter.stats.get("error"):
        terminalreporter.section("numeric environment")
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


def potts_pair(w=1.0):
    """2-node, 2-label instance with u1=(0,1), u2=(1,0) and a Potts edge."""
    unary = np.array([[0.0, 1.0], [1.0, 0.0]])
    backend = EdgeList(2, 2, np.array([[0, 1]]), potts_matrix(2, w)[None])
    return CrfInstance(unary, backend)


def write_grid_uai(path, rows, cols, d, seed, potts_w=None):
    """A rows x cols 4-neighbour grid in the UAI MARKOV format, with
    random positive unary and pairwise tables.  With `potts_w`, every
    pairwise table is instead the Potts table exp(-potts_w [s != t]), as
    in the benchmark's grid file."""
    rng = np.random.default_rng(seed)
    n = rows * cols
    edges = ([(i, i + 1) for i in range(n) if (i + 1) % cols]
             + [(i, i + cols) for i in range(n - cols)])
    lines = ["MARKOV", str(n), " ".join([str(d)] * n), str(n + len(edges))]
    lines += [f"1 {i}" for i in range(n)] + [f"2 {i} {j}" for i, j in edges] + [""]
    tables = [rng.uniform(0.05, 1.0, d) for _ in range(n)]
    if potts_w is None:
        tables += [rng.uniform(0.05, 1.0, d * d) for _ in edges]
    else:
        tables += [np.exp(-potts_matrix(d, potts_w)).reshape(-1)] * len(edges)
    for table in tables:
        lines += [str(table.size), " ".join(map(repr, table.tolist())), ""]
    path.write_text("\n".join(lines))
    return path


def zero_instance(n=3, d=2):
    return CrfInstance(np.zeros((n, d)), EdgeList(n, d, np.zeros((0, 2), int),
                                                  np.zeros((0, d, d))))


def random_dense_backend(rng, n, d):
    m = rng.standard_normal((n * d, n * d))
    m = 0.5 * (m + m.T)
    for i in range(n):
        m[i * d:(i + 1) * d, i * d:(i + 1) * d] = 0.0
    return DenseMatrix(m, d)


def random_edge_backend(rng, n, d, p=0.6):
    edges, thetas = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                edges.append((i, j))
                thetas.append(rng.standard_normal((d, d)))
    thetas = np.array(thetas) if thetas else np.zeros((0, d, d))
    return EdgeList(n, d, np.array(edges, int).reshape(-1, 2), thetas)


def random_gaussian_backend(rng, n, d):
    return GaussianKernel(rng.uniform(0, 10, (n, 2)), rng.uniform(0, 255, (n, 3)),
                          potts_matrix(d), alpha=8.0, beta=40.0, gamma=4.0)


def random_instance(rng, n=None, d=None, kind=None):
    n = n or int(rng.integers(2, 7))
    d = d or int(rng.integers(2, 4))
    kind = kind or rng.choice(["edges", "dense", "gaussian"])
    maker = {"edges": random_edge_backend, "dense": random_dense_backend,
             "gaussian": random_gaussian_backend}[kind]
    return CrfInstance(rng.standard_normal((n, d)) * 2.0, maker(rng, n, d))


def random_feasible(rng, n, d):
    e = rng.exponential(size=(n, d))
    return e / e.sum(axis=1, keepdims=True)


def all_labelings(n, d):
    return (np.array(lab) for lab in itertools.product(range(d), repeat=n))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
