/* Compiled inner loops of sspflow.solver._Engine: the two Dijkstra
 * searches and the push step with its exact-saturation push.
 *
 * Each function repeats its Python counterpart float operation for float:
 * the same reduced costs (c + pi[u]) - pi[v], the same slack test and
 * clamp, the same comparisons, so the settle order, the distances and the
 * chosen paths are bit-identical. The lists (the instance's arrays, which
 * stay read-only, and the engine's f and pi) are read in place through the
 * C API; nothing is converted. Every number a function reads must be an
 * exact float, which a double holds exactly; anything else (an int, a
 * float subclass such as numpy's float64) raises TypeError before anything
 * is written, so nothing is ever rounded. sspflow.network._floats picks
 * the kernel: _Engine's once per instance, for all-float costs and
 * capacities, the trace replay's for all-float capacities and amounts.
 * So the check is memory safety, not a decision.
 *
 * forward keeps per node the dist, hops, pred and parc (predecessor arc) of
 * its label and orders its heap by (dist, hops, node). A label is only ever
 * built from a settled one with strictly smaller (dist, hops): hops grow by
 * one, rc >= 0 and fl(d + rc) >= d. So a node is settled after every
 * relaxation that can set its label, and a relaxation that ties in (dist,
 * hops) compares arc sequences with path_less. Its last pass over the nodes
 * builds the raised potentials pi[v] + min(dist[v], bound), bound being the
 * distance of the last node settled, and after a full search the distances
 * too; a sink-stop search returns None for them, which no caller reads.
 *
 * The searches read residual capacity from the flow and capacity lists,
 * as the Python loops do: arc a over edge e = a >> 1 is present when
 * cap[e] - f[e] > 0.0 (forward) or f[e] > 0.0 (backward).
 *
 * push_path is network.push operation for operation, which stays its
 * oracle. It serves push_step, the one push step of both a solve and the
 * trace replay: the bottleneck under a limit and the good-arc test, under
 * the flow before the push, then the push. It reads every f and cap item
 * of the path, the mask and the limit before it writes anything, and it
 * writes nothing but f.
 *
 * sspflow._native builds this file with gcc -O2 -ffp-contract=off: no
 * fused multiply-add or fast-math, so every double operation rounds as
 * Python's does.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* A heap entry; reverse leaves hops at 0, so its entries order by
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

static int
state_init(State *st, Py_ssize_t n)
{
    st->n = n;
    st->len = 0;
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
    for (Py_ssize_t i = 0; i < n; i++) {
        st->dist[i] = Py_HUGE_VAL;
        st->hops[i] = 0;
        st->done[i] = 0;
    }
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

/* Whether arc a has no residual capacity, as Python decides f[e] <= 0.0
 * (backward) or cap[e] - f[e] <= 0.0 (forward) for e = a >> 1: 1, 0, or
 * -1 with an exception set. */
static int
no_residual(PyObject *f, PyObject *cap, Py_ssize_t a)
{
    Py_ssize_t e = a >> 1;
    if (e < 0 || e >= PyList_GET_SIZE(f) || (!(a & 1) && e >= PyList_GET_SIZE(cap))) {
        PyErr_SetString(PyExc_IndexError, "arc index out of range");
        return -1;
    }
    double fe, ce = 0.0;
    if (as_double(PyList_GET_ITEM(f, e), &fe) < 0
        || (!(a & 1) && as_double(PyList_GET_ITEM(cap, e), &ce) < 0))
        return -1;
    return (a & 1 ? fe : ce - fe) <= 0.0;
}

static int
item_double(PyObject *list, Py_ssize_t i, double *out)
{
    if (i < 0 || i >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "node index out of range");
        return -1;
    }
    return as_double(PyList_GET_ITEM(list, i), out);
}

/* Row v of an adjacency list, as a new reference: the row stays alive
 * while it is scanned, whatever the check callback does. */
static PyObject *
adj_row(PyObject *adj, Py_ssize_t v)
{
    PyObject *row;
    if (v >= PyList_GET_SIZE(adj) || !PyList_Check(row = PyList_GET_ITEM(adj, v))) {
        PyErr_SetString(PyExc_TypeError, "adjacency rows must be lists");
        return NULL;
    }
    Py_INCREF(row);
    return row;
}

/* One adjacency entry (arc, node, signed cost); the cost is read later,
 * only for arcs that pass the residual and settled tests. */
static int
adj_entry(PyObject *entry, Py_ssize_t n, Py_ssize_t *a, Py_ssize_t *v)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError, "adjacency entries must be 3-tuples");
        return -1;
    }
    *a = PyLong_AsSsize_t(PyTuple_GET_ITEM(entry, 0));
    if (*a == -1 && PyErr_Occurred())
        return -1;
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

/* Lists over the nodes, built in one pass: with dist, the distances;
 * with raised, [pi[i] + min(dist[i], bound)] over the first min(len(pi),
 * n) nodes, as zip pairs them in the Python loop. 0, or -1 with an
 * exception set and nothing built. */
static int
node_lists(const State *st, PyObject *pi, double bound, PyObject **dist,
           PyObject **raised)
{
    Py_ssize_t np = raised ? Py_MIN(PyList_GET_SIZE(pi), st->n) : 0;
    PyObject *out = dist ? PyList_New(st->n) : NULL, *up = raised ? PyList_New(np) : NULL;
    if ((dist && !out) || (raised && !up))
        goto fail;
    for (Py_ssize_t i = 0; i < st->n; i++) {
        double d = st->dist[i], p;
        PyObject *x;
        if (out) {
            if (!(x = PyFloat_FromDouble(d)))
                goto fail;
            PyList_SET_ITEM(out, i, x);
        }
        if (i >= np)
            continue;
        if (as_double(PyList_GET_ITEM(pi, i), &p) < 0
            || !(x = PyFloat_FromDouble(p + (d < bound ? d : bound))))
            goto fail;
        PyList_SET_ITEM(up, i, x);
    }
    if (dist)
        *dist = out;
    if (raised)
        *raised = up;
    return 0;
fail:
    Py_XDECREF(out);
    Py_XDECREF(up);
    return -1;
}

/* -- the searches --------------------------------------------------------- */

static PyObject *
forward(PyObject *self, PyObject *args)
{
    PyObject *out_adj, *f, *cap, *pi, *check;
    Py_ssize_t s, t;
    int stop_at_sink;
    double slack;
    if (!PyArg_ParseTuple(args, "O!O!O!O!nnpOd:forward", &PyList_Type, &out_adj,
                          &PyList_Type, &f, &PyList_Type, &cap, &PyList_Type, &pi,
                          &s, &t, &stop_at_sink, &check, &slack))
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(out_adj);
    if (s < 0 || s >= n || t < 0 || t >= n) {
        PyErr_SetString(PyExc_IndexError, "source or sink out of range");
        return NULL;
    }
    State st;
    if (state_init(&st, n) < 0)
        return NULL;
    PyObject *adj = NULL, *result = NULL, *dist = NULL, *raised = NULL, *path = NULL;
    Py_ssize_t stop = stop_at_sink ? t : -1;
    double bound = 0.0;
    st.dist[s] = 0.0;
    st.pred[s] = st.parc[s] = -1;
    Entry root = {0.0, 0, s};
    if (push(&st, root) < 0)
        goto done;
    while (st.len) {
        /* Labels only ever decrease, so the first entry popped for a
         * node carries its current label; later ones are stale. */
        Entry top = pop(&st);
        Py_ssize_t u = top.node;
        if (st.done[u])
            continue;
        bound = top.d;
        if (u == stop)
            break;
        st.done[u] = 1;
        Py_ssize_t hv = top.hops + 1;
        double pu;
        if (item_double(pi, u, &pu) < 0)
            goto done;
        if (!(adj = adj_row(out_adj, u)))
            goto done;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(adj); i++) {
            PyObject *entry = PyList_GET_ITEM(adj, i);
            Py_ssize_t a, v;
            if (adj_entry(entry, n, &a, &v) < 0)
                goto done;
            int skip = no_residual(f, cap, a);
            if (skip < 0)
                goto done;
            if (skip || st.done[v])
                continue;
            double pv, c, rc;
            if (item_double(pi, v, &pv) < 0
                || as_double(PyTuple_GET_ITEM(entry, 2), &c) < 0
                || reduced_cost(check, slack, a, c, pu, pv, &rc) < 0)
                goto done;
            double cand = top.d + rc, dv = st.dist[v];
            if (cand > dv)
                continue;
            if (cand == dv && hv >= st.hops[v]) {
                /* the entry (dv, hv, v) is already in the heap */
                if (hv == st.hops[v] && path_less(&st, u, a, st.pred[v], st.parc[v])) {
                    st.pred[v] = u;
                    st.parc[v] = a;
                }
                continue;
            }
            st.dist[v] = cand;
            st.hops[v] = hv;
            st.pred[v] = u;
            st.parc[v] = a;
            Entry e = {cand, hv, v};
            if (push(&st, e) < 0)
                goto done;
        }
        Py_CLEAR(adj);
    }

    if (st.dist[t] < Py_HUGE_VAL) {
        if (!(path = PyTuple_New(st.hops[t])))
            goto done;
        for (Py_ssize_t v = t, k = st.hops[t]; k > 0; v = st.pred[v]) {
            PyObject *a = PyLong_FromSsize_t(st.parc[v]);
            if (!a)
                goto done;
            PyTuple_SET_ITEM(path, --k, a);
        }
    } else {
        Py_INCREF(Py_None);
        path = Py_None;
    }
    if (node_lists(&st, pi, bound, stop_at_sink ? NULL : &dist, &raised) == 0)
        result = PyTuple_Pack(3, dist ? dist : Py_None, path, raised);
done:
    Py_XDECREF(adj);
    Py_XDECREF(dist);
    Py_XDECREF(raised);
    Py_XDECREF(path);
    state_free(&st);
    return result;
}

static PyObject *
reverse(PyObject *self, PyObject *args)
{
    PyObject *out_adj, *f, *cap, *pi, *check;
    Py_ssize_t t;
    double slack;
    if (!PyArg_ParseTuple(args, "O!O!O!O!nOd:reverse", &PyList_Type, &out_adj,
                          &PyList_Type, &f, &PyList_Type, &cap, &PyList_Type, &pi,
                          &t, &check, &slack))
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(out_adj);
    if (t < 0 || t >= n) {
        PyErr_SetString(PyExc_IndexError, "sink out of range");
        return NULL;
    }
    State st;
    if (state_init(&st, n) < 0)
        return NULL;
    PyObject *adj = NULL, *result = NULL;
    st.dist[t] = 0.0;
    Entry root = {0.0, 0, t};
    if (push(&st, root) < 0)
        goto done;
    while (st.len) {
        Entry top = pop(&st);
        Py_ssize_t v = top.node;
        if (st.done[v])
            continue;
        st.done[v] = 1;
        double pv;
        if (item_double(pi, v, &pv) < 0)
            goto done;
        if (!(adj = adj_row(out_adj, v)))
            goto done;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(adj); i++) {
            PyObject *entry = PyList_GET_ITEM(adj, i);
            Py_ssize_t b, u;
            if (adj_entry(entry, n, &b, &u) < 0)
                goto done;
            Py_ssize_t a = b ^ 1; /* from u into v, at cost -c (exact) */
            int skip = no_residual(f, cap, a);
            if (skip < 0)
                goto done;
            if (skip || st.done[u])
                continue;
            double pu, c, rc;
            if (item_double(pi, u, &pu) < 0
                || as_double(PyTuple_GET_ITEM(entry, 2), &c) < 0
                || reduced_cost(check, slack, a, -c, pu, pv, &rc) < 0)
                goto done;
            double cand = top.d + rc;
            if (cand < st.dist[u]) {
                st.dist[u] = cand;
                Entry e = {cand, 0, u};
                if (push(&st, e) < 0)
                    goto done;
            }
        }
        Py_CLEAR(adj);
    }
    node_lists(&st, NULL, 0.0, &result, NULL);
done:
    Py_XDECREF(adj);
    state_free(&st);
    return result;
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

/* One push step, of a solve (_Engine.augment, with its headroom z - value
 * as limit) or of the trace replay (with the recorded amount as limit);
 * solver._push_step is its Python mirror. The amount is the smallest of
 * limit and the residuals over the path, f[e] backward and cap[e] - f[e]
 * forward, first one on a tie. good is 1 when an arc of the path is empty
 * under f before the push (forward with f[e] == 0.0, backward with f[e] ==
 * cap[e]) and original[e] is nonzero. Then the amount is pushed. Returns
 * (amount, n_saturated, good). */
static PyObject *
push_step(PyObject *self, PyObject *args)
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
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(arcs); i++) {
        Py_ssize_t a;
        double fe, ce;
        if (path_arc(arcs, i, m, &a) < 0 || edge_doubles(f, cap, a >> 1, &fe, &ce) < 0)
            return NULL;
        double r = a & 1 ? fe : ce - fe;
        if (r < amount)
            amount = r;
        if (original[a >> 1] && fe == (a & 1 ? ce : 0.0))
            good = 1;
    }
    Py_ssize_t saturated = push_path(f, cap, arcs, amount);
    if (saturated < 0)
        return NULL;
    return Py_BuildValue("(dnN)", amount, saturated, PyBool_FromLong(good));
}

static PyMethodDef methods[] = {
    {"forward", forward, METH_VARARGS,
     "forward(out_adj, f, cap, pi, s, t, stop_at_sink, check, slack)"
     " -> (dist | None, path_arcs | None, [p + min(d, bound)]); dist is None"
     " after a sink stop; costs, f, cap and pi hold floats"},
    {"reverse", reverse, METH_VARARGS,
     "reverse(out_adj, f, cap, pi, t, check, slack) -> dist; costs, f, cap"
     " and pi hold floats"},
    {"push_step", push_step, METH_VARARGS,
     "push_step(f, cap, original, path_arcs, limit) -> (amount, n_saturated,"
     " good); f, cap and limit hold floats"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_search",
    "Compiled inner loops of sspflow.solver._Engine.", -1, methods,
};

PyMODINIT_FUNC
PyInit__search(void)
{
    return PyModule_Create(&module);
}
