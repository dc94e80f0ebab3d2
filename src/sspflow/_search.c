/* Compiled inner loops of sspflow.solver._Engine: the two Dijkstra
 * searches, the push step with its exact-saturation push, and a whole
 * solve over them, in every run_ssp mode.
 *
 * Each function repeats its Python counterpart float operation for float:
 * the same reduced costs (c + pi[u]) - pi[v], the same slack test and
 * clamp, the same comparisons, so the settle order, the distances and the
 * chosen paths are bit-identical. Every number a function reads must be
 * an exact float, which a double holds exactly; anything else (an int, a
 * float subclass such as numpy's float64) raises TypeError before the
 * call writes anything, so nothing is ever rounded. sspflow.network._floats
 * picks the kernel: _Engine's once per instance, for all-float costs and
 * capacities, the trace replay's for all-float capacities and amounts.
 * So the check is memory safety, not a decision.
 *
 * solve runs run_ssp's loop in one call, in every mode. It copies the
 * engine's f and pi and the instance's capacities and signed costs into
 * C doubles once, checking every item first, and its searches and the
 * potential raise work on those copies; pi goes back as one new list at
 * the end. The adjacency, a tuple of per-node tuples of (arc, node,
 * signed cost), is read in place through the C API, for its arcs and
 * nodes only: an arc's cost is the signed cost list's.
 *
 * search, the forward search, keeps per node the dist, hops, pred and
 * parc (predecessor arc) of its label and orders its heap by (dist, hops,
 * node). A label is only ever built from a settled one with strictly
 * smaller (dist, hops): hops grow by one, rc >= 0 and fl(d + rc) >= d.
 * So a node is settled after every relaxation that can set its label,
 * and a relaxation that ties in (dist, hops) compares arc sequences with
 * path_less. search_reverse, the reverse search, orders its heap by
 * (dist, node) and keeps no labels.
 *
 * The searches read residual capacity as the Python loops do: arc a over
 * edge e = a >> 1 is present when cap[e] - f[e] > 0.0 (forward) or
 * f[e] > 0.0 (backward).
 *
 * push_path is network.push operation for operation, which stays its
 * oracle. After bottleneck, the bottleneck under a limit and the good-arc
 * test under the flow before the push, it makes push_step, the push step
 * of a solve that steps from Python and of the trace replay. Both work on
 * the Python lists: a push step reads every f and cap item of the path,
 * the mask and the limit before it writes anything, and it writes nothing
 * but f. solve pushes the same way and reads the path's edges back into
 * its copy of f.
 *
 * path_fsum is CPython 3.11's math.fsum, so a path's length is the one
 * _Engine.path_length computes, bit for bit.
 *
 * sspflow._native builds this file with gcc -O2 -ffp-contract=off: no
 * fused multiply-add or fast-math, so every double operation rounds as
 * Python's does.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* A heap entry; search_reverse leaves hops at 0, so its entries order by
 * (dist, node), as heapq orders its (dist, node) pairs. */
typedef struct {
    double d;
    Py_ssize_t hops, node;
} Entry;

/* Per-node state of one search, freed by state_free. */
typedef struct {
    Py_ssize_t n;
    double *dist;
    Py_ssize_t *hops, *pred, *parc;
    char *done;
    Entry *heap;
    Py_ssize_t len, cap;
} State;

static void
state_free(State *st)
{
    PyMem_Free(st->dist);
    PyMem_Free(st->hops);
    PyMem_Free(st->pred);
    PyMem_Free(st->parc);
    PyMem_Free(st->done);
    PyMem_Free(st->heap);
}

/* Reset to no node reached and an empty heap, for the next search. */
static void
state_reset(State *st)
{
    st->len = 0;
    for (Py_ssize_t i = 0; i < st->n; i++) {
        st->dist[i] = Py_HUGE_VAL;
        st->hops[i] = 0;
        st->done[i] = 0;
    }
}

static int
state_init(State *st, Py_ssize_t n)
{
    st->n = n;
    st->cap = 16;
    st->dist = PyMem_New(double, n);
    st->hops = PyMem_New(Py_ssize_t, n);
    st->pred = PyMem_New(Py_ssize_t, n);
    st->parc = PyMem_New(Py_ssize_t, n);
    st->done = PyMem_New(char, n);
    st->heap = PyMem_New(Entry, st->cap);
    if (!st->dist || !st->hops || !st->pred || !st->parc || !st->done || !st->heap) {
        state_free(st);
        PyErr_NoMemory();
        return -1;
    }
    state_reset(st);
    return 0;
}

/* Whether (path(u1), a1) precedes (path(u2), a2), where u1 and u2 are
 * settled at the same depth: the two paths agree up to the deepest node
 * both predecessor chains share and differ in the arc leaving it. */
static int
path_less(const State *st, Py_ssize_t u1, Py_ssize_t a1, Py_ssize_t u2, Py_ssize_t a2)
{
    while (u1 != u2) {
        a1 = st->parc[u1];
        a2 = st->parc[u2];
        u1 = st->pred[u1];
        u2 = st->pred[u2];
    }
    return a1 < a2;
}

/* Tuple order of (dist, hops, node), as heapq compares the Python
 * search's entries. */
static int
less(const Entry *x, const Entry *y)
{
    if (x->d != y->d)
        return x->d < y->d;
    if (x->hops != y->hops)
        return x->hops < y->hops;
    return x->node < y->node;
}

static int
push(State *st, Entry e)
{
    if (st->len == st->cap) {
        Entry *grown = PyMem_Realloc(st->heap, 2 * st->cap * sizeof(Entry));
        if (!grown) {
            PyErr_NoMemory();
            return -1;
        }
        st->heap = grown;
        st->cap *= 2;
    }
    Entry *h = st->heap;
    Py_ssize_t i = st->len++;
    while (i > 0) {
        Py_ssize_t up = (i - 1) / 2;
        if (!less(&e, &h[up]))
            break;
        h[i] = h[up];
        i = up;
    }
    h[i] = e;
    return 0;
}

static Entry
pop(State *st)
{
    Entry *h = st->heap;
    Entry top = h[0], last = h[--st->len];
    Py_ssize_t i = 0, n = st->len;
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && less(&h[c + 1], &h[c]))
            c++;
        if (!less(&h[c], &last))
            break;
        h[i] = h[c];
        i = c;
    }
    if (n)
        h[i] = last;
    return top;
}

/* -- reading the engine's lists ------------------------------------------ */

/* The double an exact float holds; anything else, an int or a float
 * subclass included, raises TypeError. */
static int
as_double(PyObject *o, double *out)
{
    if (!PyFloat_CheckExact(o)) {
        PyErr_Format(PyExc_TypeError, "expected a float, got %.200s", Py_TYPE(o)->tp_name);
        return -1;
    }
    *out = PyFloat_AS_DOUBLE(o);
    return 0;
}

/* The first k items of list, every one an exact float, into out: 0, or -1
 * with TypeError set. */
static int
copy_doubles(PyObject *list, Py_ssize_t k, double *out)
{
    for (Py_ssize_t i = 0; i < k; i++)
        if (as_double(PyList_GET_ITEM(list, i), &out[i]) < 0)
            return -1;
    return 0;
}

/* What solve's searches read: the adjacency, read in place, and the
 * doubles of f and cap by edge, of pi by node and of the signed costs by
 * arc. Every arc a of the adjacency must satisfy 0 <= a < arcs, an even
 * number, so that a ^ 1 does too. */
typedef struct {
    PyObject *out_adj;
    Py_ssize_t arcs;
    double *f, *cap, *pi, *cost;
} Net;

/* Whether arc a has no residual capacity, as Python decides f[e] <= 0.0
 * (backward) or cap[e] - f[e] <= 0.0 (forward) for e = a >> 1. */
static int
no_residual(const Net *g, Py_ssize_t a)
{
    Py_ssize_t e = a >> 1;
    return (a & 1 ? g->f[e] : g->cap[e] - g->f[e]) <= 0.0;
}

/* Row v of the adjacency tuple, borrowed: a tuple's rows cannot be
 * replaced, so it stays alive whatever the check callback does. */
static PyObject *
adj_row(PyObject *adj, Py_ssize_t v)
{
    PyObject *row;
    if (v >= PyTuple_GET_SIZE(adj) || !PyTuple_Check(row = PyTuple_GET_ITEM(adj, v))) {
        PyErr_SetString(PyExc_TypeError, "adjacency rows must be tuples");
        return NULL;
    }
    return row;
}

/* One adjacency entry (arc, node, signed cost), its arc checked against
 * g->arcs and its node against n; the cost is g->cost's. */
static int
adj_entry(const Net *g, PyObject *entry, Py_ssize_t n, Py_ssize_t *a, Py_ssize_t *v)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError, "adjacency entries must be 3-tuples");
        return -1;
    }
    *a = PyLong_AsSsize_t(PyTuple_GET_ITEM(entry, 0));
    if (*a == -1 && PyErr_Occurred())
        return -1;
    if (*a < 0 || *a >= g->arcs) {
        PyErr_SetString(PyExc_IndexError, "arc index out of range");
        return -1;
    }
    *v = PyLong_AsSsize_t(PyTuple_GET_ITEM(entry, 1));
    if (*v == -1 && PyErr_Occurred())
        return -1;
    if (*v < 0 || *v >= n) {
        PyErr_SetString(PyExc_IndexError, "node index out of range");
        return -1;
    }
    return 0;
}

/* rc = (c + pu) - pv for arc a of cost c from u to v, with pu = pi[u] and
 * pv = pi[v], clamped at 0.0 as the Python loops do; below -slack,
 * check(rc, a, c, pu, pv) decides first and may raise. */
static int
reduced_cost(PyObject *check, double slack, Py_ssize_t a, double c, double pu,
             double pv, double *rc)
{
    *rc = (c + pu) - pv;
    if (*rc < 0.0) {
        if (*rc < -slack) {
            PyObject *ok = PyObject_CallFunction(check, "dnddd", *rc, a, c, pu, pv);
            if (!ok)
                return -1;
            Py_DECREF(ok);
        }
        *rc = 0.0;
    }
    return 0;
}

/* math.inf, the recorded distance of every unreached node. */
static PyObject *inf;

/* One step's recorded distances, {nodes[i]: x} over the n nodes, as
 * solver._Engine builds them: after the full forward search, from the
 * raised pi, x is a new float of pi[i] (actual_distances), which
 * held[i] keeps too, so that the pi solve returns holds the same objects;
 * after the reverse search, from pi before the raise, x is
 * (dist[i] - pi[i]) + pi[t] (actual_distances_to_sink), and held is NULL.
 * An unreached node maps to inf. A new dict, or NULL with an exception
 * set. */
static PyObject *
distances(const State *st, PyObject *nodes, const double *pi, Py_ssize_t t,
          PyObject **held)
{
    PyObject *out = PyDict_New(), *x;
    if (!out)
        return NULL;
    for (Py_ssize_t i = 0; i < st->n; i++) {
        double d = st->dist[i];
        if (held)
            Py_CLEAR(held[i]);
        if (!(d < Py_HUGE_VAL))
            x = Py_NewRef(inf);
        else if (!(x = PyFloat_FromDouble(held ? pi[i] : d - pi[i] + pi[t])))
            goto fail;
        else if (held)
            held[i] = Py_NewRef(x);
        int set = PyDict_SetItem(out, PyTuple_GET_ITEM(nodes, i), x);
        Py_DECREF(x);
        if (set < 0)
            goto fail;
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

/* -- the searches --------------------------------------------------------- */

/* The forward search from s over a reset st, to t and no further when
 * stop_at_sink (solver._Engine.dijkstra_forward), then the raise of every
 * g->pi[v] by min(dist[v], bound), bound being the distance of the last
 * node settled. Labels stay in st. 0, or -1 with an exception set. */
static int
search(State *st, const Net *g, Py_ssize_t s, Py_ssize_t t, int stop_at_sink,
       PyObject *check, double slack)
{
    Py_ssize_t n = st->n, stop = stop_at_sink ? t : -1;
    double bound = 0.0, *pi = g->pi;
    st->dist[s] = 0.0;
    st->pred[s] = st->parc[s] = -1;
    Entry root = {0.0, 0, s};
    if (push(st, root) < 0)
        return -1;
    while (st->len) {
        /* Labels only ever decrease, so the first entry popped for a
         * node carries its current label; later ones are stale. */
        Entry top = pop(st);
        Py_ssize_t u = top.node;
        if (st->done[u])
            continue;
        bound = top.d;
        if (u == stop)
            break;
        st->done[u] = 1;
        Py_ssize_t hv = top.hops + 1;
        double pu = pi[u];
        PyObject *adj = adj_row(g->out_adj, u);
        if (!adj)
            return -1;
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(adj); i++) {
            Py_ssize_t a, v;
            if (adj_entry(g, PyTuple_GET_ITEM(adj, i), n, &a, &v) < 0)
                return -1;
            if (no_residual(g, a) || st->done[v])
                continue;
            double rc;
            if (reduced_cost(check, slack, a, g->cost[a], pu, pi[v], &rc) < 0)
                return -1;
            double cand = top.d + rc, dv = st->dist[v];
            if (cand > dv)
                continue;
            if (cand == dv && hv >= st->hops[v]) {
                /* the entry (dv, hv, v) is already in the heap */
                if (hv == st->hops[v] && path_less(st, u, a, st->pred[v], st->parc[v])) {
                    st->pred[v] = u;
                    st->parc[v] = a;
                }
                continue;
            }
            st->dist[v] = cand;
            st->hops[v] = hv;
            st->pred[v] = u;
            st->parc[v] = a;
            Entry e = {cand, hv, v};
            if (push(st, e) < 0)
                return -1;
        }
    }
    for (Py_ssize_t v = 0; v < n; v++) {
        double d = st->dist[v];
        pi[v] = pi[v] + (d < bound ? d : bound);
    }
    return 0;
}

/* The reverse search into t over a reset st (solver._Engine
 * dijkstra_reverse): each node's reduced distance to t in st->dist. An
 * entry (b, u, c) of out_adj[v] is arc b ^ 1 from u into v, at cost -c,
 * which is g->cost[b ^ 1]. 0, or -1 with an exception set. */
static int
search_reverse(State *st, const Net *g, Py_ssize_t t, PyObject *check, double slack)
{
    const double *pi = g->pi;
    st->dist[t] = 0.0;
    Entry root = {0.0, 0, t};
    if (push(st, root) < 0)
        return -1;
    while (st->len) {
        Entry top = pop(st);
        Py_ssize_t v = top.node;
        if (st->done[v])
            continue;
        st->done[v] = 1;
        double pv = pi[v];
        PyObject *adj = adj_row(g->out_adj, v);
        if (!adj)
            return -1;
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(adj); i++) {
            Py_ssize_t b, u;
            if (adj_entry(g, PyTuple_GET_ITEM(adj, i), st->n, &b, &u) < 0)
                return -1;
            Py_ssize_t a = b ^ 1;
            if (no_residual(g, a) || st->done[u])
                continue;
            double rc;
            if (reduced_cost(check, slack, a, g->cost[a], pi[u], pv, &rc) < 0)
                return -1;
            double cand = top.d + rc;
            if (cand < st->dist[u]) {
                st->dist[u] = cand;
                Entry e = {cand, 0, u};
                if (push(st, e) < 0)
                    return -1;
            }
        }
    }
    return 0;
}

/* The arcs of the path to a reached t, read back from its predecessors
 * into arcs, in order from s: their number. */
static Py_ssize_t
path_to(const State *st, Py_ssize_t t, Py_ssize_t *arcs)
{
    Py_ssize_t k = st->hops[t];
    for (Py_ssize_t v = t, i = k; i > 0; v = st->pred[v])
        arcs[--i] = st->parc[v];
    return k;
}

/* The k arcs as a new tuple of ints, or NULL with an exception set. */
static PyObject *
arc_tuple(const Py_ssize_t *arcs, Py_ssize_t k)
{
    PyObject *path = PyTuple_New(k);
    if (!path)
        return NULL;
    for (Py_ssize_t i = 0; i < k; i++) {
        PyObject *a = PyLong_FromSsize_t(arcs[i]);
        if (!a) {
            Py_DECREF(path);
            return NULL;
        }
        PyTuple_SET_ITEM(path, i, a);
    }
    return path;
}

/* math.fsum(cost[a] for a in arcs[:k]) into *sum, as CPython 3.11 sums:
 * exact partials, then the sum of the partials from the top with the
 * half-even correction across them. p holds the partials: one per arc at
 * most. An inf or nan cost gives their plain sum; 0, or -1 with
 * OverflowError or ValueError set as math.fsum raises them. */
static int
path_fsum(const double *cost, const Py_ssize_t *arcs, Py_ssize_t k, double *p, double *sum)
{
    Py_ssize_t n = 0;
    double special_sum = 0.0, inf_sum = 0.0, x, y, t, hi, yr, lo = 0.0;
    for (Py_ssize_t a = 0; a < k; a++) {
        double xsave = x = cost[arcs[a]];
        Py_ssize_t i = 0;
        for (Py_ssize_t j = 0; j < n; j++) { /* for y in partials */
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i; /* partials[i:] = [x] */
        if (x != 0.0) {
            if (!Py_IS_FINITE(x)) {
                /* an intermediate overflow, or an inf or nan cost */
                if (Py_IS_FINITE(xsave)) {
                    PyErr_SetString(PyExc_OverflowError, "intermediate overflow in fsum");
                    return -1;
                }
                if (Py_IS_INFINITY(xsave))
                    inf_sum += xsave;
                special_sum += xsave;
                n = 0;
            } else {
                p[n++] = x;
            }
        }
    }
    if (special_sum != 0.0) {
        if (Py_IS_NAN(inf_sum)) {
            PyErr_SetString(PyExc_ValueError, "-inf + inf in fsum");
            return -1;
        }
        *sum = special_sum;
        return 0;
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        /* sum the partials from the top, stopping when the sum becomes
         * inexact */
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* half-even rounding across the partials: the ones left below
         * break a tie that lo leaves */
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *sum = hi;
    return 0;
}

/* -- the exact-saturation push ------------------------------------------ */

/* Arc i of a path tuple; it must be an int, whose edge a >> 1 indexes the
 * m edges. An int past Py_ssize_t is out of range too, as a list index. */
static int
path_arc(PyObject *arcs, Py_ssize_t i, Py_ssize_t m, Py_ssize_t *a)
{
    *a = PyLong_AsSsize_t(PyTuple_GET_ITEM(arcs, i));
    if (*a == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    if (*a < 0 || *a >> 1 >= m) {
        PyErr_SetString(PyExc_IndexError, "arc index out of range");
        return -1;
    }
    return 0;
}

/* f[e] and cap[e] as doubles, for an e that path_arc has checked: 0, or
 * -1 with TypeError set when either is not an exact float. */
static int
edge_doubles(PyObject *f, PyObject *cap, Py_ssize_t e, double *fe, double *ce)
{
    if (as_double(PyList_GET_ITEM(f, e), fe) < 0)
        return -1;
    return as_double(PyList_GET_ITEM(cap, e), ce);
}

/* network.push(f, cap, arcs, amount) on a path whose arcs path_arc has
 * checked and whose f and cap items edge_doubles has read: the number of arcs
 * it saturates, or -1 with an exception set. A saturated forward arc
 * takes the cap item itself, as f[e] = cap[e] does. */
static Py_ssize_t
push_path(PyObject *f, PyObject *cap, PyObject *arcs, double amount)
{
    Py_ssize_t saturated = 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(arcs); i++) {
        Py_ssize_t a = PyLong_AsSsize_t(PyTuple_GET_ITEM(arcs, i)), e = a >> 1;
        double fe = PyFloat_AS_DOUBLE(PyList_GET_ITEM(f, e));
        PyObject *ce = PyList_GET_ITEM(cap, e), *x;
        if (a & 1) {
            if (fe == amount) {
                saturated++;
                x = PyFloat_FromDouble(0.0);
            } else {
                x = PyFloat_FromDouble(fe - amount);
            }
        } else if (PyFloat_AS_DOUBLE(ce) - fe == amount) {
            saturated++;
            Py_INCREF(ce);
            x = ce;
        } else {
            fe += amount;
            if (fe == PyFloat_AS_DOUBLE(ce)) /* the sum rounded onto the capacity */
                saturated++;
            x = PyFloat_FromDouble(fe);
        }
        if (!x)
            return -1;
        PyList_SetItem(f, e, x); /* the old item is a float: no code runs */
    }
    return saturated;
}

/* The bottleneck of a path under a limit, into *amount, which holds the
 * limit: the smallest of the limit and the residuals over the path,
 * f[e] backward and cap[e] - f[e] forward, first one on a tie. With
 * original, *good is 1 when an arc of the path is empty under f (forward
 * with f[e] == 0.0, backward with f[e] == cap[e]) and original[e] is
 * nonzero; the mask covers the first m edges, which every arc must
 * index. 0, or -1 with an exception set; it writes nothing to f. */
static int
bottleneck(PyObject *f, PyObject *cap, const char *original, Py_ssize_t m,
           PyObject *arcs, double *amount, int *good)
{
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(arcs); i++) {
        Py_ssize_t a;
        double fe, ce;
        if (path_arc(arcs, i, m, &a) < 0 || edge_doubles(f, cap, a >> 1, &fe, &ce) < 0)
            return -1;
        double r = a & 1 ? fe : ce - fe;
        if (r < *amount)
            *amount = r;
        if (original && original[a >> 1] && fe == (a & 1 ? ce : 0.0))
            *good = 1;
    }
    return 0;
}

/* One push step, of a solve (_Engine.augment, with its headroom z - value
 * as limit) or of the trace replay (with the recorded amount as limit);
 * solver._push_step is its Python mirror. The amount is the bottleneck
 * under the limit, and good whether the path has a good arc, both under
 * the flow before the push. Then the amount is pushed. Returns (amount,
 * n_saturated, good). */
static PyObject *
push_step(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *f, *cap, *arcs, *limit;
    const char *original;
    Py_ssize_t m;
    double amount;
    if (!PyArg_ParseTuple(args, "O!O!y#O!O:push_step", &PyList_Type, &f, &PyList_Type,
                          &cap, &original, &m, &PyTuple_Type, &arcs, &limit)
        || as_double(limit, &amount) < 0)
        return NULL;
    m = Py_MIN(m, Py_MIN(PyList_GET_SIZE(f), PyList_GET_SIZE(cap)));
    int good = 0;
    if (bottleneck(f, cap, original, m, arcs, &amount, &good) < 0)
        return NULL;
    Py_ssize_t saturated = push_path(f, cap, arcs, amount);
    if (saturated < 0)
        return NULL;
    return Py_BuildValue("(dnN)", amount, saturated, PyBool_FromLong(good));
}

/* -- a whole solve --------------------------------------------------------- */

/* Append item, a new reference or NULL, to list, which then holds the
 * only reference: 0, or -1 with an exception set. */
static int
append_new(PyObject *list, PyObject *item)
{
    if (!item)
        return -1;
    int appended = PyList_Append(list, item);
    Py_DECREF(item);
    return appended;
}

/* The n potentials as a new list: held[i] where held holds one (the
 * objects of the last distances from s), else a new float. */
static PyObject *
pi_list(const double *pi, Py_ssize_t n, PyObject *const *held)
{
    PyObject *out = PyList_New(n), *x;
    if (!out)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!(x = held && held[i] ? Py_NewRef(held[i]) : PyFloat_FromDouble(pi[i]))) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, x);
    }
    return out;
}

/* run_ssp's loop toward a float target z, from the flow value value, in
 * one call and in its order, over doubles copied from f, cap, pi and the
 * signed costs. With node ids in nodes, each step runs search_reverse
 * over pi before the raise and the full forward search, records both
 * distance dicts and then ends at z; with None it ends at z first and
 * searches to the sink. After the raise, unless the sink is unreached,
 * the path's length (path_fsum) is above the threshold above (strictly;
 * inf for none) or max_steps paths are taken: the bottleneck under the
 * headroom z - value and push_path on the f list, whose pushed items go
 * back into the copy; a push that the headroom binds reaches z, as in
 * solver._value_after. With retain, flows holds f as a tuple before the
 * first push and after each. f is updated in place, pi left alone.
 * Returns (paths, amounts, lengths, pi, end, dists, flows): each step's
 * arcs, amount and length, pi after the last raise as a new list, the
 * end (0 at z or an unreached sink, 1 above the threshold, 2 at
 * max_steps with a path left), a (from_s, to_t) pair per forward search
 * or None, and the flows or None. */
static PyObject *
solve(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *out_adj, *f, *cap, *pi, *cost, *check, *nodes;
    Py_ssize_t s, t, max_steps;
    double slack, z, value, above;
    int retain;
    if (!PyArg_ParseTuple(args, "O!O!O!O!O!nnOdddnOpd:solve", &PyTuple_Type, &out_adj,
                          &PyList_Type, &f, &PyList_Type, &cap, &PyList_Type, &pi,
                          &PyList_Type, &cost, &s, &t, &check, &slack, &z, &value,
                          &max_steps, &nodes, &retain, &above))
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(out_adj);
    int record = nodes != Py_None;
    if (Py_IS_NAN(above)) {
        PyErr_SetString(PyExc_ValueError, "the length threshold must not be NaN");
        return NULL;
    }
    if (s < 0 || s >= n || t < 0 || t >= n) {
        PyErr_SetString(PyExc_IndexError, "source or sink out of range");
        return NULL;
    }
    if (PyList_GET_SIZE(pi) < n) {
        PyErr_SetString(PyExc_IndexError, "pi must hold a potential per node");
        return NULL;
    }
    if (record && (!PyTuple_Check(nodes) || PyTuple_GET_SIZE(nodes) < n)) {
        PyErr_SetString(PyExc_TypeError, "nodes must be None or a tuple of n node ids");
        return NULL;
    }
    Py_ssize_t m = Py_MIN(Py_MIN(PyList_GET_SIZE(f), PyList_GET_SIZE(cap)),
                          PyList_GET_SIZE(cost) / 2);
    State st;
    if (state_init(&st, n) < 0)
        return NULL;
    /* f, cap, cost and pi; then a path's arcs and its partials, at most
     * n - 1 of each; then the last distances from s */
    double *buf = PyMem_New(double, 4 * m + 2 * n);
    Py_ssize_t *arcs = PyMem_New(Py_ssize_t, n);
    PyObject **held = record ? PyMem_Calloc(n, sizeof(PyObject *)) : NULL;
    PyObject *paths = NULL, *amounts = NULL, *lengths = NULL, *dists = NULL;
    PyObject *flows = NULL, *result = NULL;
    int end = 0;
    if (!buf || !arcs || (record && !held)) {
        PyErr_NoMemory();
        goto done;
    }
    Net g = {out_adj, 2 * m, buf, buf + m, buf + 4 * m, buf + 2 * m};
    double *partials = buf + 4 * m + n;
    if (copy_doubles(f, m, g.f) < 0 || copy_doubles(cap, m, g.cap) < 0
        || copy_doubles(cost, 2 * m, g.cost) < 0 || copy_doubles(pi, n, g.pi) < 0)
        goto done;
    paths = PyList_New(0);
    amounts = PyList_New(0);
    lengths = PyList_New(0);
    dists = record ? PyList_New(0) : Py_NewRef(Py_None);
    flows = retain ? PyList_New(0) : Py_NewRef(Py_None);
    if (!paths || !amounts || !lengths || !dists || !flows
        || (retain && append_new(flows, PyList_AsTuple(f)) < 0))
        goto done;
    for (;;) {
        PyObject *to_t = NULL, *path;
        if (!record && value == z)
            break;
        if (PyErr_CheckSignals() < 0)
            goto done;
        if (record) {
            if (search_reverse(&st, &g, t, check, slack) < 0
                || !(to_t = distances(&st, nodes, g.pi, t, NULL)))
                goto done;
            state_reset(&st);
        }
        if (search(&st, &g, s, t, !record, check, slack) < 0) {
            Py_XDECREF(to_t);
            goto done;
        }
        if (record) {
            PyObject *from_s = distances(&st, nodes, g.pi, t, held);
            PyObject *pair = from_s ? PyTuple_Pack(2, from_s, to_t) : NULL;
            Py_XDECREF(from_s);
            Py_DECREF(to_t);
            if (append_new(dists, pair) < 0)
                goto done;
            if (value == z)
                break;
        }
        if (!(st.dist[t] < Py_HUGE_VAL))
            break;
        Py_ssize_t k = path_to(&st, t, arcs);
        double length;
        if (path_fsum(g.cost, arcs, k, partials, &length) < 0)
            goto done;
        if (length > above || PyList_GET_SIZE(paths) >= max_steps) {
            end = length > above ? 1 : 2;
            break;
        }
        if (append_new(paths, path = arc_tuple(arcs, k)) < 0) /* paths holds path */
            goto done;
        /* the lists' sizes now, whatever the check callback did */
        Py_ssize_t edges = Py_MIN(m, Py_MIN(PyList_GET_SIZE(f), PyList_GET_SIZE(cap)));
        double headroom = z - value, amount = headroom;
        if (bottleneck(f, cap, NULL, edges, path, &amount, NULL) < 0
            || push_path(f, cap, path, amount) < 0
            || append_new(amounts, PyFloat_FromDouble(amount)) < 0
            || append_new(lengths, PyFloat_FromDouble(length)) < 0
            || (retain && append_new(flows, PyList_AsTuple(f)) < 0))
            goto done;
        for (Py_ssize_t i = 0; i < k; i++) /* push_path wrote floats only */
            g.f[arcs[i] >> 1] = PyFloat_AS_DOUBLE(PyList_GET_ITEM(f, arcs[i] >> 1));
        value = headroom == amount ? z : value + amount;
        state_reset(&st);
    }
    PyObject *raised = pi_list(g.pi, n, held);
    if (raised)
        result = Py_BuildValue("(OOONiOO)", paths, amounts, lengths, raised, end, dists,
                               flows);
done:
    Py_XDECREF(paths);
    Py_XDECREF(amounts);
    Py_XDECREF(lengths);
    Py_XDECREF(dists);
    Py_XDECREF(flows);
    if (held)
        for (Py_ssize_t i = 0; i < n; i++)
            Py_XDECREF(held[i]);
    PyMem_Free(held);
    PyMem_Free(arcs);
    PyMem_Free(buf);
    state_free(&st);
    return result;
}

static PyMethodDef methods[] = {
    {"push_step", push_step, METH_VARARGS,
     "push_step(f, cap, original, path_arcs, limit) -> (amount, n_saturated,"
     " good); f, cap and limit hold floats"},
    {"solve", solve, METH_VARARGS,
     "solve(out_adj, f, cap, pi, signed_cost, s, t, check, slack, z, value,"
     " max_steps, nodes, retain, above) -> (paths, amounts, lengths, pi, end,"
     " dists, flows); f, cap, pi and signed_cost hold floats"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_search",
    "Compiled inner loops of sspflow.solver._Engine.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__search(void)
{
    PyObject *math = PyImport_ImportModule("math");
    if (!math)
        return NULL;
    Py_XSETREF(inf, PyObject_GetAttrString(math, "inf"));
    Py_DECREF(math);
    return inf ? PyModule_Create(&module) : NULL;
}
