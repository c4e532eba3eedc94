"""Fast tests of the benchmark's own oracle and tracer on tiny hand-made
cases.  Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.oracle import bad_picks, check_cascade, distances  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def test_exact_duplicate_codewords_accept_only_the_lowest_index():
    table = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    d = distances(np.array([[2.0, 0.0]]), table)
    assert bad_picks(d, [1]).size == 0
    assert bad_picks(d, [2]).tolist() == [0]
    assert bad_picks(d, [0]).tolist() == [0]


def test_distinct_codewords_at_equal_distance_tie_exactly():
    table = np.array([[1.0, 0.0], [-1.0, 0.0]])
    d = distances(np.array([[0.0, 3.0]]), table)
    assert d[0, 0] == d[0, 1] == 2.0
    assert bad_picks(d, [0]).size == 0
    assert bad_picks(d, [1]).tolist() == [0]


def test_zero_query_uses_raw_distance():
    table = np.array([[3.0, 0.0], [0.0, 0.5], [0.0, 2.0]])
    d = distances(np.zeros((1, 2)), table)
    np.testing.assert_allclose(d, [[9.0, 0.25, 4.0]])
    assert bad_picks(d, [1]).size == 0
    assert bad_picks(d, [2]).tolist() == [0]


def test_zero_codeword_sits_at_unit_distance():
    d = distances(np.array([[5.0, 0.0]]), np.array([[0.0, 0.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(d, [[1.0, 4.0]])


def test_nonzero_queries_compare_directions_not_magnitudes():
    # by angle entry 0 is nearer; by raw distance entry 1 would be
    table = np.array([[0.1, 0.0], [1.0, 0.5]])
    d = distances(np.array([[1.0, 0.2]]), table)
    assert bad_picks(d, [0]).size == 0
    assert bad_picks(d, [1]).tolist() == [0]


def test_out_of_range_pick_fails():
    d = distances(np.array([[1.0, 0.0]]), np.eye(2))
    assert bad_picks(d, [2]).tolist() == [0]
    assert bad_picks(d, [-1]).tolist() == [0]


def test_single_level_cascade_and_telescoping():
    table = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    p = np.array([[2.0, 0.1], [0.0, 0.0], [-0.5, -0.1]])
    # the zero row is at raw distance 1 from every entry: lowest index wins
    idx = np.array([[0], [0], [2]])
    codewords = table[idx[:, 0]][None]
    residual = p - codewords[0]
    assert check_cascade(p, [table], idx, codewords, residual) == []
    wrong = idx.copy()
    wrong[2, 0] = 1
    assert "level 0" in check_cascade(p, [table], wrong)[0]
    assert "miss the input" in check_cascade(p, [table], idx, codewords,
                                             residual + 1e-6)[0]
    assert "extents" in check_cascade(p, [table, table], idx)[0]


def _unit(v):
    n = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(n > 0, n, 1.0)


def _one_gemm_search(q, table, with_norms=True):
    """Search by one product of unit rows: ||q^ - v^||^2 = |q^|^2 + |v^|^2
    - 2 q^.v^, where |v^|^2 is 0 for a zero codeword, 1 otherwise.  Zero
    queries fall back to raw distance."""
    qn, vn = _unit(q), _unit(table)
    norms = (vn * vn).sum(axis=1) if with_norms else 1.0
    idx = np.argmin(norms - 2.0 * (qn @ vn.T), axis=1)
    zero = ~q.any(axis=1)
    if zero.any():
        idx[zero] = np.argmin(((table[None] - q[zero][:, None]) ** 2).sum(-1), axis=1)
    return idx


def _raw_search(q, table):
    return np.argmin(((q[:, None] - table[None]) ** 2).sum(-1), axis=1)


def _cascade(search, p, tables):
    resid, picks = p.copy(), []
    for t in tables:
        picks.append(search(resid, t))
        resid = resid - t[picks[-1]]
    return np.stack(picks, axis=1)


def test_program_search_and_one_gemm_search_pass_a_raw_search_fails():
    from rvqtok.rvq import RVQStack

    rng = np.random.default_rng(0)
    stack = RVQStack.create(8, 4, 3, 16, rng)
    stack.codebooks[0].entries[5] = stack.codebooks[0].entries[3]
    p = rng.normal(size=(50, 4))
    p[7] = 0.0
    a = stack.quantize_codes(p)
    tables = [b.entries for b in stack.codebooks]
    assert check_cascade(p, tables, a.indices, a.codewords, a.residual) == []
    assert check_cascade(p, tables, _cascade(_one_gemm_search, p, tables)) == []
    assert check_cascade(p, tables, _cascade(_raw_search, p, tables)) != []


def test_one_gemm_search_must_count_zero_codewords():
    # a zero codeword is at distance 1 from any unit query, not 2
    table = np.array([[0.0, 0.0], [0.2, 1.0]])
    q = np.array([[1.0, 0.0]])
    assert check_cascade(q, [table], _cascade(_one_gemm_search, q, [table])) == []
    naive = _cascade(lambda r, t: _one_gemm_search(r, t, with_norms=False), q, [table])
    assert check_cascade(q, [table], naive) != []


def test_tracer_nests_spans_and_restores_bindings():
    class Layer:
        def inner(self):
            return 3

        def outer(self):
            return self.inner() + 1

    tracer = Tracer()
    with tracer.installed():
        tracer.wrap(Layer, "inner", "inner", note=lambda args, result: result)
        tracer.wrap(Layer, "outer", "outer")
        with tracer.span("op"):
            assert Layer().outer() == 4
    assert Layer.inner.__name__ == "inner" and Layer.outer.__name__ == "outer"
    assert [s.name for s in tracer.spans] == ["op", "outer", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert tracer.per_ancestor("op", "inner", "note") == [3.0]
    op, outer, inner = tracer.spans
    assert tracer.self_time_of("outer") == [outer.duration - inner.duration]
