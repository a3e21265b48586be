import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_feasible, random_instance, write_grid_uai
from crffw import (CapacityError, InstanceFormatError, RandomDense, RandomEdgeList,
                   RandomGrid, UnsupportedFeatureError, brute_force_map,
                   convexify, generate, instances, read_json, read_uai, write_json)
from crffw.cli import main


class TestGenerate:
    def test_determinism(self, tmp_path):
        spec = RandomDense(n=20, d=4, seed=42)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.unary, b.unary)
        np.testing.assert_array_equal(a.pairwise.positions, b.pairwise.positions)
        np.testing.assert_array_equal(a.pairwise.colors, b.pairwise.colors)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, pa)
        write_json(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_default_dense_accepted_by_all_solvers(self):
        # full-scale smoke run: n=500, d=21 with the default kernel
        from crffw import (ADMM, EMD, PGD, ConvexFW, DampedMeanField,
                           EntropicFW, FastPGM, L2FW, MeanField,
                           SolverConfig, VanillaFW, run_generalized_fw)
        inst = generate(RandomDense(n=500, d=21, seed=3))
        configs = [SolverConfig(VanillaFW(), max_iters=20),
                   SolverConfig(ConvexFW(), max_iters=20),
                   SolverConfig(L2FW(), lam=1.0, max_iters=20),
                   SolverConfig(EntropicFW(), lam=0.5, max_iters=20),
                   SolverConfig(MeanField(), max_iters=20),
                   SolverConfig(DampedMeanField(), max_iters=20),
                   SolverConfig(PGD(), max_iters=20),
                   SolverConfig(FastPGM(), max_iters=20),
                   SolverConfig(EMD(), max_iters=20),
                   SolverConfig(ADMM(), max_iters=20)]
        for cfg in configs:
            x, trace = run_generalized_fw(inst, cfg)
            assert np.all(np.isfinite(x))
            assert len(trace) == 20

    def test_zero_edge_probability(self):
        inst = generate(RandomEdgeList(n=5, d=3, seed=0, edge_prob=0.0))
        assert len(inst.pairwise.edges) == 0

    def test_edge_pair_budget(self, monkeypatch):
        # refused before any draw: 2,897 nodes have 4,194,856 > 2^22 pairs
        with pytest.raises(CapacityError, match="^a random edge list over 2897 nodes"):
            generate(RandomEdgeList(n=2897))
        monkeypatch.setattr(instances, "MAX_EDGE_PAIRS", 10)
        assert len(generate(RandomEdgeList(n=5, edge_prob=1.0)).pairwise.edges) == 10
        with pytest.raises(CapacityError):
            generate(RandomEdgeList(n=6))

    @pytest.mark.parametrize("spec, message", [
        (RandomDense(d=10 ** 6), "a 1000000 x 1000000 compatibility matrix"),
        (RandomDense(n=10 ** 8, d=2), "a dense instance of 100000000 nodes and 2 labels"),
        (RandomGrid(d=10 ** 6), "a 1000000 x 1000000 Potts matrix"),
        (RandomGrid(rows=10 ** 5, cols=10 ** 5, d=1), "a 10000000000 x 1 unary table"),
        (RandomGrid(rows=3000, cols=3000, d=8), "17994000 edge blocks of 8 x 8"),
        (RandomEdgeList(n=3, d=20_000, edge_prob=1.0),
         "a random edge list of more than 0 20000 x 20000 blocks"),
    ], ids=["dense-compat", "dense-nodes", "grid-potts", "grid-unary", "grid-blocks",
            "edges-blocks"])
    def test_entry_budget_refuses_before_allocating(self, spec, message):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"^{message} is too large$"):
                generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_edge_blocks_are_counted_as_drawn(self, monkeypatch):
        # 10 pairs at edge_prob 0.5: the budget binds on the blocks drawn
        full = generate(RandomEdgeList(n=5, d=2, seed=1, edge_prob=0.5))
        n_edges = len(full.pairwise.edges)
        monkeypatch.setattr(instances, "MAX_ENTRIES", 4 * n_edges)
        again = generate(RandomEdgeList(n=5, d=2, seed=1, edge_prob=0.5))
        np.testing.assert_array_equal(again.pairwise.thetas, full.pairwise.thetas)
        monkeypatch.setattr(instances, "MAX_ENTRIES", 4 * n_edges - 1)
        with pytest.raises(CapacityError):
            generate(RandomEdgeList(n=5, d=2, seed=1, edge_prob=0.5))

    def test_grid_edge_count(self):
        inst = generate(RandomGrid(rows=3, cols=4, d=2, seed=0))
        assert len(inst.pairwise.edges) == 3 * 3 + 2 * 4

    def test_random_compat_is_symmetric(self):
        inst = generate(RandomDense(n=5, d=4, seed=9, compat="random"))
        np.testing.assert_allclose(inst.pairwise.compat, inst.pairwise.compat.T)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate(RandomDense(n=0, d=3, seed=0))
        with pytest.raises(ValueError):
            generate(RandomEdgeList(n=3, d=3, seed=0, edge_prob=1.5))


def every_theta(theta):
    """An edit that gives every edge entry of a document `theta`."""
    def edit(doc):
        for entry in doc["pairwise"]["edges"]:
            entry["theta"] = theta
    return edit


class TestJsonRoundTrip:
    def test_lossless_for_all_backends(self, rng, tmp_path):
        specs = ([RandomDense(n=6, d=3, seed=s) for s in range(7)]
                 + [RandomGrid(rows=2, cols=3, d=2, seed=s) for s in range(7)]
                 + [RandomEdgeList(n=5, d=3, seed=s) for s in range(6)])
        for idx, spec in enumerate(specs):
            inst = generate(spec)
            path = tmp_path / f"i{idx}.json"
            write_json(inst, path)
            back = read_json(path)
            for _ in range(20):
                x = random_feasible(rng, inst.n_nodes, inst.n_labels)
                assert inst.energy_relaxed(x) == back.energy_relaxed(x)

    def test_dense_matrix_backend_round_trip(self, rng, tmp_path):
        inst = random_instance(rng, kind="dense")
        path = tmp_path / "dense.json"
        write_json(inst, path)
        back = read_json(path)
        np.testing.assert_array_equal(back.pairwise.to_dense(), inst.pairwise.to_dense())

    def test_missing_unary_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "n": 1, "d": 2, '
                        '"pairwise": {"type": "dense", "matrix": [[0,0],[0,0]]}}')
        with pytest.raises(InstanceFormatError,
                           match=r"^missing field 'unary' in instance file$"):
            read_json(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 2, "n": 1, "d": 2, "unary": [[0, 0]], '
                        '"pairwise": {"type": "dense", "matrix": [[0,0],[0,0]]}}')
        with pytest.raises(InstanceFormatError, match="version"):
            read_json(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n  "n": }')
        with pytest.raises(InstanceFormatError, match="line"):
            read_json(path)

    EDGES, GAUSS = RandomGrid(rows=1, cols=3, d=2, seed=0), RandomDense(n=3, d=2, seed=0)

    @pytest.mark.parametrize("spec, edit, message", [
        (EDGES, lambda doc: doc.update(unary=[["a"]]),
         r"^field 'unary' in instance file must hold numbers$"),
        (EDGES, lambda doc: doc.update(pairwise="type"), r"^field 'pairwise' must be an object$"),
        (EDGES, lambda doc: doc["pairwise"].update(edges=5),
         r"^field 'edges' in pairwise must be a list$"),
        (GAUSS, lambda doc: doc["pairwise"].update(w1="x"),
         r"^field 'w1' in pairwise must be a number, got \"x\"$"),
        (GAUSS, lambda doc: doc["pairwise"].update(alpha=None),
         r"^field 'alpha' in pairwise must be a number, got null$"),
        (EDGES, lambda doc: doc["pairwise"]["edges"][0].update(i=0.5),
         r"^field 'i' in edge entry must be an integer, got 0.5$"),
        (EDGES, lambda doc: doc["pairwise"]["edges"][0].update(j=2 ** 70),
         r"^field 'j' in edge entry is out of range, got 1180591620717411303424$"),
        (GAUSS, lambda doc: doc["pairwise"].update(w1=10 ** 400),
         r"^field 'w1' in pairwise is out of range, got 1000+$"),
        (EDGES, lambda doc: doc["unary"][0].__setitem__(0, 10 ** 400),
         r"^field 'unary' in instance file must hold numbers$"),
        (EDGES, lambda doc: doc.update(unary=[[0.0, 0.0]]),
         r"^field 'unary' must be 3 x 2, got \(1, 2\)$"),
        (EDGES, every_theta([0, 1, 1, 0]),
         r"^field 'theta' in edge entry must be 2 x 2, got \(4,\)$"),
        (EDGES, every_theta([[0, 1, 1, 0]]),
         r"^field 'theta' in edge entry must be 2 x 2, got \(1, 4\)$"),
        (EDGES, every_theta([[0], [1], [1], [0]]),
         r"^field 'theta' in edge entry must be 2 x 2, got \(4, 1\)$"),
        (EDGES, every_theta([[0, 1, 1], [1, 0, 1]]),
         r"^field 'theta' in edge entry must be 2 x 2, got \(2, 3\)$"),
    ], ids=["unary-text", "pairwise-string", "edges-number", "w1-text", "alpha-null",
            "fractional-endpoint", "endpoint-past-int64", "w1-past-float", "unary-past-float",
            "unary-shape", "theta-flat", "theta-row", "theta-column", "theta-2x3"])
    def test_malformed_field_is_named(self, tmp_path, capsys, spec, edit, message):
        path = tmp_path / "bad.json"
        write_json(generate(spec), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=message):
            read_json(path)
        assert main(["solve", "--instance", str(path), "--method", "mf"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field '") and err.count("\n") == 1


@pytest.mark.parametrize("doc, message", [
    ({"n": True, "d": 2, "unary": [[0.0, 1.0]]},
     r"^field 'n' in instance file must be an integer, got true$"),
    ({"n": 1, "d": True, "unary": [[0.0]]},
     r"^field 'd' in instance file must be an integer, got true$"),
    ({"n": 0, "d": 2, "unary": []}, r"^field 'n' in instance file must be >= 1, got 0$"),
    ({"n": 1, "d": 0, "unary": [[]]}, r"^field 'd' in instance file must be >= 1, got 0$"),
], ids=["n-true", "d-true", "n-zero", "d-zero"])
def test_json_sizes_must_be_integers(tmp_path, capsys, doc, message):
    # (1, 2) == (True, 2): the shape check alone lets a boolean through
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"version": 1, **doc,
                                "pairwise": {"type": "edges", "edges": []}}))
    with pytest.raises(InstanceFormatError, match=message):
        read_json(path)
    assert main(["solve", "--instance", str(path), "--method", "mf"]) == 1
    assert capsys.readouterr().err.startswith("error: field '")


@pytest.mark.parametrize("suffix, text, message", [
    (".json", '{"version": 1, "n": 1, "d": 2, "unary": [[0, 0]], "pairwise": {"type": "sparse"}}',
     "unknown pairwise type 'sparse'"),
    (".uai", "MARKOV\n2\n2 2\n1\n2 0 2\n4\n1 1 1 1\n", "factor 0 references an unknown variable"),
    (".uai", "MARKOV\n2\n2 2\n1\n2 1 1\n4\n1 1 1 1\n", "factor 0 repeats a variable in its scope"),
], ids=["pairwise-type", "uai-unknown-variable", "uai-repeated-variable"])
def test_bad_structure_is_one_error_line(tmp_path, capsys, suffix, text, message):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        (read_json if suffix == ".json" else read_uai)(path)
    assert main(["solve", "--instance", str(path), "--method", "mf"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("call, error, message", [
    (lambda path: generate("dense"), TypeError, "unknown generator spec: 'dense'"),
    (lambda path: generate(RandomDense(n=2, d=2, compat="x")), ValueError,
     "unknown compatibility kind: 'x'"),
    (lambda path: write_json(convexify(generate(RandomGrid(rows=1, cols=2, d=2))), path),
     TypeError, "cannot serialize backend <crffw.model.DiagonalShift object at"),
], ids=["unknown-spec", "unknown-compat", "write-shifted"])
def test_rejects_what_it_cannot_build(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call(tmp_path / "out.json")


def write_uai(path, text):
    path.write_text(text)
    return path


def test_read_uai_streams(tmp_path):
    # the file's tokens are read 65,536 characters at a time: reading it
    # whole first, or a line at a time from the one-line layout, peaks at
    # about 5.5 times its size
    path = write_grid_uai(tmp_path / "g.uai", 30, 30, 8, seed=0)
    one_line = tmp_path / "one_line.uai"
    one_line.write_text(path.read_text().replace("\n", " "))
    for layout in (path, one_line):
        read_uai(layout)  # leave first-call allocations out of the measurement
        tracemalloc.start()
        try:
            read_uai(layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * layout.stat().st_size, layout.name


class TestReadUai:
    @pytest.mark.parametrize("text, message", [
        ("MARKOV\n1\n1000000000000\n0\n", "a 1 x 1000000000000 unary table"),
        ("MARKOV\n1\n100000\n0\n", "a 100000 x 100000 pairwise block"),
    ], ids=["unary", "block"])
    def test_entry_budget_refuses_before_allocating(self, tmp_path, text, message):
        path = write_uai(tmp_path / "big.uai", text)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"^{message} is too large$"):
                read_uai(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_single_variable_factor(self, tmp_path):
        path = write_uai(tmp_path / "a.uai", """MARKOV
1
2
1
1 0

2
 0.5 0.5
""")
        inst = read_uai(path)
        np.testing.assert_allclose(inst.unary, [[math.log(2.0), math.log(2.0)]])

    def test_all_ones_pairwise_is_zero_block(self, tmp_path):
        path = write_uai(tmp_path / "b.uai", """MARKOV
2
2 2
1
2 0 1

4
 1 1 1 1
""")
        inst = read_uai(path)
        np.testing.assert_array_equal(inst.pairwise.thetas[0], np.zeros((2, 2)))

    def test_zero_probability_clamped(self, tmp_path):
        path = write_uai(tmp_path / "c.uai", """MARKOV
1
2
1
1 0

2
 0 1
""")
        inst = read_uai(path)
        assert inst.unary[0, 0] == pytest.approx(-math.log(1e-300))
        assert inst.unary[0, 0] == pytest.approx(690.77552789821, abs=1e-8)
        assert inst.unary[0, 1] == 0.0

    def test_higher_order_rejected(self, tmp_path):
        path = write_uai(tmp_path / "d.uai", """MARKOV
3
2 2 2
1
3 0 1 2

8
 1 1 1 1 1 1 1 1
""")
        with pytest.raises(UnsupportedFeatureError):
            read_uai(path)

    def test_non_uniform_cardinality_rejected(self, tmp_path):
        path = write_uai(tmp_path / "e.uai", """MARKOV
2
2 3
0
""")
        with pytest.raises(UnsupportedFeatureError):
            read_uai(path)

    def test_repeated_scopes_multiply(self, tmp_path):
        path = write_uai(tmp_path / "f.uai", """MARKOV
2
2 2
2
2 0 1
2 1 0

4
 0.5 0.25 0.125 0.0625
4
 2 2 2 2
""")
        inst = read_uai(path)
        # second factor has reversed scope: its table is transposed, and
        # the log-potentials add
        base = -np.log(np.array([[0.5, 0.25], [0.125, 0.0625]]))
        np.testing.assert_allclose(inst.pairwise.thetas[0], base - math.log(2.0))

    def test_map_matches_product_maximization(self, rng, tmp_path):
        for trial in range(20):
            n = int(rng.integers(2, 5))
            d = 2 if n > 3 else int(rng.integers(2, 4))
            lines = ["MARKOV", str(n), " ".join([str(d)] * n)]
            factors = []
            for i in range(n):
                factors.append(([i], rng.uniform(0.05, 1.0, size=d)))
            for i in range(n - 1):
                factors.append(([i, i + 1], rng.uniform(0.05, 1.0, size=d * d)))
            lines.append(str(len(factors)))
            for scope, _ in factors:
                lines.append(f"{len(scope)} " + " ".join(map(str, scope)))
            lines.append("")
            for _, table in factors:
                lines.append(str(table.size))
                lines.append(" ".join(repr(float(v)) for v in table))
            path = write_uai(tmp_path / f"r{trial}.uai", "\n".join(lines) + "\n")
            inst = read_uai(path)
            report = brute_force_map(inst)

            def product_of_factors(lab):
                p = 1.0
                for scope, table in factors:
                    if len(scope) == 1:
                        p *= table[lab[scope[0]]]
                    else:
                        p *= table.reshape(d, d)[lab[scope[0]], lab[scope[1]]]
                return p

            best = max(itertools.product(range(d), repeat=n), key=product_of_factors)
            assert product_of_factors(tuple(report.optimal_labeling)) == pytest.approx(
                product_of_factors(best), rel=1e-9)

    def test_truncated_file(self, tmp_path):
        path = write_uai(tmp_path / "g.uai", "MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 1\n")
        with pytest.raises(InstanceFormatError):
            read_uai(path)

    def test_wrong_network_type(self, tmp_path):
        path = write_uai(tmp_path / "h.uai", "BAYES\n1\n2\n0\n")
        with pytest.raises(UnsupportedFeatureError):
            read_uai(path)


class TestReadUaiBulkTables:
    """Potentials must equal a running sum, in file order, of the
    per-table -log(max(phi, 1e-300)) values."""

    TEXT = """MARKOV
3
3 3 3
7
1 2
2 0 1
2 1 0
1 2
2 2 1
1 0
2 0 1

3 0.3 0.5
 0.2
9 0.11 0.22 0.33
0.44 0.55
0.66 0.77 0.88 0.99
9 1.5 0.5 0.25 0.125 1.0 0.0 3.0 0.7 0.9
3
0.9 1.0 0.1
9 0.01 0.02 0.03 0.04 0.05 0.06 0.07 0.08 0.09
3 0.6 0.6 0.6
9 1 2 3 4 5 6 7 8 9
"""

    def test_potentials_are_bitwise_running_sums(self, tmp_path):
        path = write_uai(tmp_path / "bulk.uai", self.TEXT)
        inst = read_uai(path)

        def pot(values):
            return -np.log(np.maximum(np.array(values), 1e-300))

        unary = np.zeros((3, 3))
        unary[2] += pot([0.3, 0.5, 0.2])
        unary[2] += pot([0.9, 1.0, 0.1])
        unary[0] += pot([0.6, 0.6, 0.6])
        t01 = pot([0.11, 0.22, 0.33, 0.44, 0.55, 0.66, 0.77, 0.88, 0.99]).reshape(3, 3)
        t10 = pot([1.5, 0.5, 0.25, 0.125, 1.0, 0.0, 3.0, 0.7, 0.9]).reshape(3, 3)
        t21 = pot([0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09]).reshape(3, 3)
        t01b = pot([1, 2, 3, 4, 5, 6, 7, 8, 9]).reshape(3, 3)
        theta01 = 0.0 + t01 + t10.T + t01b
        theta12 = 0.0 + t21.T
        assert inst.unary.tobytes() == unary.tobytes()
        assert inst.pairwise.edges.tolist() == [[0, 1], [1, 2]]
        assert inst.pairwise.thetas.tobytes() == np.stack([theta01, theta12]).tobytes()

    @pytest.mark.parametrize("body, message", [
        ("4\n0.5 0.5\nnope 0.5\n", r"^expected number for table entry of factor 0, "
                                    r"got 'nope'$"),
        ("4\n0.5 0.5\n", r"^unexpected end of file while reading table entry of factor 0$"),
        ("3\n0.5 0.5 0.5\n", r"^factor 0 table has 3 entries, expected 4$"),
        ("4\n0.5 0.5 0.5 0.5\n2\n1 x\n", r"^expected number for table entry of factor 1, "
                                         r"got 'x'$"),
        ("4\n0.5 0.5 0.5 0.5\n", r"^unexpected end of file while reading table size "
                                 r"of factor 1$"),
        ("4\n0.5 nan 0.5 0.5\n2\n1 1\n", r"^expected finite number for table entry "
                                       r"of factor 0, got nan$"),
        ("4\n0.5 0.5 0.5 0.5\n2\n1 inf\n", r"^expected finite number for table entry "
                                         r"of factor 1, got inf$"),
    ], ids=["non-numeric", "truncated", "size-mismatch", "second-table", "missing-table",
            "nan-entry", "inf-entry"])
    def test_table_errors(self, tmp_path, body, message):
        path = write_uai(tmp_path / "bad.uai", "MARKOV\n2\n2 2\n2\n2 0 1\n1 1\n" + body)
        with pytest.raises(InstanceFormatError, match=message):
            read_uai(path)

    def test_negative_entry_rejected(self, tmp_path, capsys):
        # max(phi, 1e-300) would turn -0.5 into the potential 690.8
        path = write_uai(tmp_path / "neg.uai", "MARKOV\n2\n2 2\n1\n1 0\n2\n-0.5 0.5\n")
        with pytest.raises(InstanceFormatError, match=r"^expected nonnegative number for "
                                                      r"table entry of factor 0, got -0.5$"):
            read_uai(path)
        assert main(["solve", "--instance", str(path), "--method", "mf"]) == 1
        assert capsys.readouterr().err.startswith("error: expected nonnegative number")

    def test_scope_errors(self, tmp_path):
        path = write_uai(tmp_path / "s.uai", "MARKOV\n2\n2 2\n1\n2 0 y\n")
        with pytest.raises(InstanceFormatError,
                           match=r"^expected integer for scope of factor 0, got 'y'$"):
            read_uai(path)
        path = write_uai(tmp_path / "t.uai", "MARKOV\n2\n2 2\n1\n2 0")
        with pytest.raises(InstanceFormatError,
                           match=r"^unexpected end of file while reading scope of factor 0$"):
            read_uai(path)

    @pytest.mark.parametrize("text, message", [
        ("MARKOV\n0\n0\n", "network has no variables"),
        ("MARKOV\n-1\n0\n", "network has no variables"),
        ("MARKOV\n2\n0 0\n1\n2 0 1\n0\n\n", "label cardinalities must be positive"),
        ("MARKOV\n2\n2 2\n-1\n", "negative factor count -1"),
    ], ids=["zero", "negative", "zero-labels", "negative-factors"])
    def test_empty_sizes_rejected(self, tmp_path, text, message):
        with pytest.raises(InstanceFormatError, match=message):
            read_uai(write_uai(tmp_path / "e.uai", text))

    def test_no_factors(self, tmp_path):
        inst = read_uai(write_uai(tmp_path / "z.uai", "MARKOV\n2\n3 3\n0\n"))
        assert inst.unary.shape == (2, 3) and not inst.unary.any()
        assert inst.pairwise.edges.shape == (0, 2)
