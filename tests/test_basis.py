import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.special import comb

from wavecell.basis import (BasisSpec, bspline_eval, gl_rule, gll_rule,
                            lagrange_eval)


def test_gll_p1_is_trapezoid():
    r = gll_rule(1)
    assert np.allclose(r.nodes, [-1.0, 1.0])
    assert np.allclose(r.weights, [1.0, 1.0])


def test_gll_p2_closed_form():
    r = gll_rule(2)
    assert np.allclose(r.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(r.weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0],
                       atol=1e-15)


@pytest.mark.parametrize("p", range(1, 11))
def test_gll_rule_basics(p):
    r = gll_rule(p)
    assert r.nodes.shape[0] == p + 1
    assert r.nodes[0] == -1.0 and r.nodes[-1] == 1.0
    assert (np.diff(r.nodes) > 0.0).all()
    assert abs(r.weights.sum() - 2.0) < 1e-12
    # interior nodes are the roots of L_p'
    if p >= 2:
        dLp = legendre.legder(np.eye(p + 1)[p])
        assert np.max(np.abs(legendre.legval(r.nodes[1:-1], dLp))) < 1e-10


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_integrates_legendre_exactly(p):
    # degree <= 2p-1: integral of P_k is 2 for k=0 and 0 otherwise
    r = gll_rule(p)
    for k in range(0, 2 * p):
        vals = legendre.legval(r.nodes, np.eye(k + 1)[k])
        exact = 2.0 if k == 0 else 0.0
        assert abs(np.dot(r.weights, vals) - exact) < 1e-12


def gll_newton_longdouble(p):
    """GLL rule by Newton iteration on (1 - x^2) P_p' from Chebyshev-Lobatto
    starts, in long double, symmetrized; weights 2 / (p (p+1) P_p^2)."""
    def legendre_pair(x):                       # P_{p-1}, P_p by recurrence
        P_prev, P = np.ones_like(x), x.copy()
        for n in range(1, p):
            P_prev, P = P, ((2 * n + 1) * x * P - n * P_prev) / (n + 1)
        return P_prev, P

    x = -np.cos(np.pi * np.arange(1, p) / p).astype(np.longdouble)
    for _ in range(100):
        P_prev, P = legendre_pair(x)
        dP = p * (x * P - P_prev) / (x * x - 1)
        # Legendre's ODE: ((1 - x^2) P_p')' = -p (p+1) P_p
        dx = -(1 - x * x) * dP / (p * (p + 1) * P)
        x -= dx
        if not np.any(np.abs(dx) > 1e-21):
            break
    x = (x - x[::-1]) / 2
    nodes = np.concatenate(([-1], x, [1])).astype(np.longdouble)
    P = legendre_pair(nodes)[1]
    return nodes, 2 / (p * (p + 1) * P * P)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the oracle needs extended precision")
@pytest.mark.parametrize("p", range(1, 11))
def test_gll_rule_against_longdouble_newton(p):
    # Within 4 ulp of each value (measured: 1.4 for nodes and 3.8 for
    # weights at p <= 10), and nodes antisymmetric to the bit.
    r = gll_rule(p)
    nodes, weights = gll_newton_longdouble(p)
    for got, want in ((r.nodes, nodes), (r.weights, weights)):
        ulp = np.spacing(np.abs(want.astype(float)))
        assert np.all(np.abs(got - want) <= 4 * ulp)
    assert np.array_equal(r.nodes, -r.nodes[::-1])


def test_gl_q1_midpoint():
    r = gl_rule(1)
    assert np.allclose(r.nodes, [0.0]) and np.allclose(r.weights, [2.0])


def test_gl_q2_closed_form():
    r = gl_rule(2)
    assert np.allclose(r.nodes, [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)],
                       atol=1e-15)
    assert np.allclose(r.weights, [1.0, 1.0], atol=1e-15)


def test_gl_q3_integrates_quartic():
    r = gl_rule(3)
    assert abs(np.dot(r.weights, r.nodes**4) - 2.0 / 5.0) < 1e-14


@pytest.mark.parametrize("q", range(1, 8))
def test_gl_exactness_degree(q):
    r = gl_rule(q)
    assert abs(r.weights.sum() - 2.0) < 1e-12
    for k in range(2 * q):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(r.weights, r.nodes**k) - exact) < 1e-12


@pytest.mark.parametrize("rule, n", [(gl_rule, 1), (gl_rule, 4),
                                     (gll_rule, 1), (gll_rule, 2),
                                     (gll_rule, 6)])
def test_memoized_rules_are_shared_and_read_only(rule, n):
    # every caller gets the one memoized rule, bit for bit what a fresh
    # computation gives, and none of them can change it for the others
    r = rule(n)
    assert rule(n) is r
    fresh = rule.__wrapped__(n)
    assert r.nodes.tobytes() == fresh.nodes.tobytes()
    assert r.weights.tobytes() == fresh.weights.tobytes()
    for a in (r.nodes, r.weights):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a += 1.0


def test_invalid_rule_orders():
    with pytest.raises(ValueError):
        gll_rule(0)
    with pytest.raises(ValueError):
        gl_rule(0)


def test_lagrange_interpolation_property():
    nodes = gll_rule(4).nodes
    vals, _ = lagrange_eval(nodes, nodes)
    assert np.allclose(vals, np.eye(len(nodes)), atol=1e-12)


def test_lagrange_partition_and_derivative_sums():
    nodes = gll_rule(3).nodes
    vals, ders = lagrange_eval(nodes, np.linspace(-1.0, 1.0, 17))
    assert np.abs(vals.sum(axis=-1) - 1.0).max() < 1e-12
    assert np.abs(ders.sum(axis=-1)).max() < 1e-12


def test_lagrange_derivative_against_finite_differences():
    nodes = gll_rule(5).nodes
    h = 1e-6
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.999, 0.999, size=20)
    _, ders = lagrange_eval(nodes, x)
    vp, _ = lagrange_eval(nodes, x + h)
    vm, _ = lagrange_eval(nodes, x - h)
    fd = (vp - vm) / (2.0 * h)
    assert np.max(np.abs(ders - fd)) < 1e-6


def open_uniform_knots(n_e, p):
    """Open uniform knot vector of n_e unit spans on [0, n_e]: end knots
    repeated p+1 times, simple interior knots."""
    return np.concatenate((np.zeros(p), np.arange(n_e + 1.0),
                           np.full(p, float(n_e))))


def uniform_spans(x, n_e, p):
    """Knot span of each point of [0, 1] on the open uniform knot vector."""
    return p + np.minimum(np.floor(x * n_e).astype(int), n_e - 1)


def knot_windows(knots, span, p):
    """The 2p knots around each span, as ``bspline_eval`` takes them."""
    return knots[np.asarray(span)[..., None] + np.arange(1 - p, p + 1)]


def cox_de_boor(knots, p, span, x):
    """Values and derivatives of the p+1 B-splines on knot span ``span`` at
    the scalar ``x``, reading the full knot vector (The NURBS Book, A2.2)."""
    N, left, right = [1.0] + [0.0] * p, [0.0] * (p + 1), [0.0] * (p + 1)
    D = [0.0] * (p + 1)
    for j in range(1, p + 1):
        if j == p:      # from the degree p-1 functions N[0..p-1]
            term = [p * N[r] / (knots[span + 1 + r] - knots[span - p + 1 + r])
                    for r in range(p)]
            D = ([-term[0]] + [term[r - 1] - term[r] for r in range(1, p)]
                 + [term[p - 1]])
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            temp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        N[j] = saved
    return N, D


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_e", [1, 2, 3, 6, 11])
def test_eval_element_equals_cox_de_boor_on_full_knots(p, n_e):
    # The closed-form knot window of each element gives, bit for bit, the
    # recursion on the whole knot vector (in knot spacings from the
    # element's left knot, where every knot is an exact integer).
    spec = BasisSpec(family="bspline", p=p, n_e=n_e)
    xi = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(
        10 * p + n_e).uniform(-1.0, 1.0, 200)])
    V, D = spec.eval_element(np.arange(n_e)[:, None], xi)
    for e in range(n_e):
        knots = open_uniform_knots(n_e, p) - e
        for i, x in enumerate(xi):
            v, d = cox_de_boor(knots, p, p + e, (x + 1.0) / 2.0)
            assert np.array_equal(V[e, i], v)
            assert np.array_equal(D[e, i], np.array(d) / 2.0)


def test_bspline_bernstein_case():
    vals, _ = bspline_eval(knot_windows(open_uniform_knots(1, 2), 2, 2), 0.5)
    assert np.allclose(vals, [0.25, 0.5, 0.25], atol=1e-14)


def test_bspline_degree_zero_is_span_indicator():
    vals, ders = bspline_eval(np.empty(0), 0.3)    # p = 0: no knots read
    assert vals.shape == (1,)
    assert np.allclose(vals, [1.0])
    assert np.allclose(ders, [0.0])


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_partition_of_unity_random_points(family, p):
    rng = np.random.default_rng(10 * p + (family == "bspline"))
    xs = rng.uniform(0.0, 1.0, size=1000)
    if family == "lagrange":
        vals, ders = lagrange_eval(gll_rule(p).nodes, 2.0 * xs - 1.0)
    else:
        window = knot_windows(open_uniform_knots(4, p) / 4.0,
                              uniform_spans(xs, 4, p), p)
        vals, ders = bspline_eval(window, xs)
        assert (vals >= -1e-14).all()
    assert vals.shape == ders.shape == (1000, p + 1)
    assert np.abs(vals.sum(axis=-1) - 1.0).max() < 1e-10
    assert np.abs(ders.sum(axis=-1)).max() < 1e-10


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_bspline_reproduces_polynomials(p):
    # Marsden: coefficients e_k(t_{i+1}..t_{i+p}) / C(p, k) reproduce x^k.
    n_e = 5
    kn = open_uniform_knots(n_e, p) / n_e
    n_funcs = n_e + p

    def elementary_symmetric(vals, k):
        e = np.zeros(k + 1)
        e[0] = 1.0
        for v in vals:
            e[1:] = e[1:] + v * e[:-1]
        return e[k]

    x = np.linspace(0.0, 1.0, 23)
    span = uniform_spans(x, n_e, p)
    vals, _ = bspline_eval(knot_windows(kn, span, p), x)
    funcs = span[:, None] - p + np.arange(p + 1)
    for k in range(p + 1):
        coeffs = np.array([
            elementary_symmetric(kn[i + 1:i + p + 1], k) / comb(p, k)
            for i in range(n_funcs)
        ])
        s = np.sum(coeffs[funcs] * vals, axis=-1)
        assert np.abs(s - x**k).max() < 1e-10


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n_e", [2, 4, 8])
def test_bspline_element_interfaces_match(p, n_e):
    # Element e ends (xi = +1) where element e+1 starts (xi = -1): the
    # functions they share agree there, and the one each does not share
    # vanishes.  C^(p-1) continuity makes first derivatives agree too.
    spec = BasisSpec(family="bspline", p=p, n_e=n_e)
    e = np.arange(n_e - 1)
    V_end, D_end = spec.eval_element(e, 1.0)
    V_start, D_start = spec.eval_element(e + 1, -1.0)
    assert np.abs(V_end[:, 1:] - V_start[:, :-1]).max() < 1e-14
    assert np.abs(V_end[:, 0]).max() < 1e-14
    assert np.abs(V_start[:, -1]).max() < 1e-14
    # Each element measures xi-derivatives on its own (equal) length.
    if p >= 2:
        scale = np.abs(D_end).max()
        assert np.abs(D_end[:, 1:] - D_start[:, :-1]).max() < 1e-13 * scale


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n_e", [1, 2, 6, 11])
def test_bspline_values_equal_within_signature(p, n_e):
    # Elements at the same distance from the boundary (up to p) carry the
    # same 1D functions; their values are bitwise equal, not just close.
    spec = BasisSpec(family="bspline", p=p, n_e=n_e)
    e = np.arange(n_e)
    key = np.minimum(e, p) * (p + 1) + np.minimum(n_e - 1 - e, p)
    xi = np.concatenate([[-1.0, 1.0], np.random.default_rng(p).uniform(
        -1.0, 1.0, 17)])
    V, D = spec.eval_element(e[:, None], xi)
    for a in range(n_e):
        for b in np.flatnonzero(key == key[a]):
            assert np.array_equal(V[a], V[b]) and np.array_equal(D[a], D[b])


@pytest.mark.parametrize("family", ["lagrange", "bspline"])
def test_eval_element_broadcasts(family):
    spec = BasisSpec(family=family, p=3, n_e=5)
    rng = np.random.default_rng(3)
    e = rng.integers(0, spec.n_e, size=(11, 3))
    xi = rng.uniform(-1.0, 1.0, size=(11, 3))
    xi[0] = (-1.0, 0.0, 1.0)
    V, D = spec.eval_element(e, xi)
    assert V.shape == D.shape == (11, 3, spec.p + 1)
    for i in range(11):
        for d in range(3):
            v, dv = spec.eval_element(int(e[i, d]), xi[i, d])
            assert v.shape == (spec.p + 1,)
            assert np.array_equal(V[i, d], v) and np.array_equal(D[i, d], dv)
    # one element against many points, and many elements against one point
    assert spec.eval_element(2, xi)[0].shape == (11, 3, spec.p + 1)
    assert spec.eval_element(e, 0.5)[0].shape == (11, 3, spec.p + 1)


def test_basis_spec_counts():
    s = BasisSpec(family="lagrange", p=3, n_e=10)
    assert s.n_funcs_1d == 31
    b = BasisSpec(family="bspline", p=3, n_e=32)
    assert b.n_funcs_1d == 35
    with pytest.raises(ValueError):
        BasisSpec(family="lagrange", p=0, n_e=4)
    with pytest.raises(ValueError):
        BasisSpec(family="bspline", p=2, n_e=0)
