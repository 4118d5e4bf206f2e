/* Compiled solver kernels: Metropolis annealing and tabu descent.
 *
 * An operation-for-operation port of the pure-Python oracle _kernels_py:
 * the same splitmix64 seeding and xorshift64* stream, the same float
 * operation order and tie-breaks, and libm exp/pow, so the two give
 * bit-identical results.  Build with -ffp-contract=off so that no
 * multiply-add is fused.  The inputs are copied into C buffers and the
 * interpreter lock is released around the sweep and move loops.
 *
 * The couplings are stored column by column: col[i * n + q] = jd[q * n + i],
 * so the field update after flipping spin i reads one contiguous row.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define STAR 0x2545F4914F6CDD1DULL

typedef struct {
    int n;
    uint64_t state;
    double *col, *h, *fields;  /* n*n, n, n */
    signed char *spins, *best_spins;
} Chain;

static uint64_t step(uint64_t *state)
{
    uint64_t x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    return x * STAR;
}

static double unif(uint64_t out) { return (double)(out >> 11) * (1.0 / 9007199254740992.0); }

static PyObject *mix_seed(PyObject *self, PyObject *args)
{
    PyObject *seed, *stream;
    if (!PyArg_ParseTuple(args, "OO:mix_seed", &seed, &stream))
        return NULL;
    uint64_t s = PyLong_AsUnsignedLongLongMask(seed);
    if (PyErr_Occurred())
        return NULL;
    uint64_t k = PyLong_AsUnsignedLongLongMask(stream);
    if (PyErr_Occurred())
        return NULL;
    uint64_t z = s + (k + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return PyLong_FromUnsignedLongLong(z ? z : STAR);
}

/* Copies `count` floats from a sequence; with `by_column`, the n*n matrix
   is stored transposed.  Returns -1 with an exception set. */
static int load(PyObject *seq, Py_ssize_t count, double *out, int by_column, int n)
{
    PyObject *fast = PySequence_Fast(seq, "couplings and fields must be sequences");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) < count) {
        PyErr_Format(PyExc_ValueError, "need %zd coefficients, got %zd", count,
                     PySequence_Fast_GET_SIZE(fast));
        Py_DECREF(fast);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t k = 0; k < count; k++) {
        double v = PyFloat_AsDouble(items[k]);
        if (v == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[by_column ? (k % n) * n + k / n : k] = v;
    }
    Py_DECREF(fast);
    return 0;
}

/* Allocates the chain's buffers (plus `extra` doubles at col + n*n + 2n)
   and copies the coefficients; returns -1 with an exception set. */
static int chain_open(Chain *c, int n, PyObject *jd, PyObject *h, uint64_t seed,
                      Py_ssize_t extra)
{
    memset(c, 0, sizeof *c);
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "n must be non-negative");
        return -1;
    }
    c->n = n;
    c->state = seed;
    c->col = PyMem_New(double, (size_t)n * n + 2 * (size_t)n + extra + 1);
    c->spins = PyMem_New(signed char, 2 * (size_t)n + 1);
    if (c->col == NULL || c->spins == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->h = c->col + (size_t)n * n;
    c->fields = c->h + n;
    c->best_spins = c->spins + n;
    if (load(jd, (Py_ssize_t)n * n, c->col, 1, n) < 0 || load(h, n, c->h, 0, n) < 0)
        return -1;
    return 0;
}

static void chain_close(Chain *c)
{
    PyMem_Free(c->col);
    PyMem_Free(c->spins);
}

/* Random spins, their local fields and energy (no lock needed). */
static double chain_init(Chain *c)
{
    int n = c->n;
    for (int i = 0; i < n; i++)
        c->spins[i] = step(&c->state) & 1 ? 1 : -1;
    for (int i = 0; i < n; i++) {
        double acc = c->h[i];
        for (int q = 0; q < n; q++)
            acc += c->col[(size_t)q * n + i] * c->spins[q];
        c->fields[i] = acc;
    }
    double cur = 0.0;
    for (int i = 0; i < n; i++)
        cur += 0.5 * c->spins[i] * (c->fields[i] + c->h[i]);
    memcpy(c->best_spins, c->spins, n);
    return cur;
}

static void chain_flip(Chain *c, int i)
{
    int n = c->n;
    c->spins[i] = -c->spins[i];
    signed char si = c->spins[i];
    const double *row = c->col + (size_t)i * n;
    for (int q = 0; q < n; q++)
        c->fields[q] += 2.0 * row[q] * si;
}

/* Closes the chain; returns (best_spins, best_energy, extra), NULL on error.
   Steals the reference to `extra`, which is NULL if building it failed. */
static PyObject *chain_result(Chain *c, double best, PyObject *extra)
{
    PyObject *spins = NULL, *out = NULL;
    if (extra != NULL && (spins = PyList_New(c->n)) != NULL) {
        for (int i = 0; i < c->n; i++)  /* small ints are cached: cannot fail */
            PyList_SET_ITEM(spins, i, PyLong_FromLong(c->best_spins[i]));
        out = Py_BuildValue("(OdO)", spins, best, extra);
    }
    Py_XDECREF(spins);
    Py_XDECREF(extra);
    chain_close(c);
    return out;
}

static PyObject *anneal(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "jd", "h", "sweeps", "t0", "t1", "seed",
                             "collect_trace", NULL};
    int n, sweeps, collect_trace;
    double t0, t1;
    PyObject *jd, *h, *seed_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOiddOp:anneal", kwlist, &n, &jd,
                                     &h, &sweeps, &t0, &t1, &seed_obj, &collect_trace))
        return NULL;
    uint64_t seed = PyLong_AsUnsignedLongLongMask(seed_obj);
    if (PyErr_Occurred())
        return NULL;
    Py_ssize_t rows = collect_trace && sweeps > 0 ? sweeps : 0;
    Chain c;
    if (chain_open(&c, n, jd, h, seed, 2 * rows) < 0) {
        chain_close(&c);
        return NULL;
    }
    double *temps = c.fields + n, *bests = temps + rows;
    double cur, best, t = t0;
    Py_BEGIN_ALLOW_THREADS
    cur = best = chain_init(&c);
    double ratio = sweeps > 1 ? pow(t1 / t0, 1.0 / (sweeps - 1)) : 1.0;
    for (int sweep = 0; sweep < sweeps; sweep++) {
        for (int i = 0; i < n; i++) {
            double de = -2.0 * c.spins[i] * c.fields[i];
            if (de > 0.0 && unif(step(&c.state)) >= exp(-de / t))
                continue;
            chain_flip(&c, i);
            cur += de;
            if (cur < best) {
                best = cur;
                memcpy(c.best_spins, c.spins, n);
            }
        }
        if (rows) {
            temps[sweep] = t;
            bests[sweep] = best;
        }
        t *= ratio;
    }
    Py_END_ALLOW_THREADS
    PyObject *trace = PyList_New(rows);
    for (Py_ssize_t k = 0; trace && k < rows; k++) {
        PyObject *row = Py_BuildValue("(ndd)", k, temps[k], bests[k]);
        if (row == NULL)
            Py_CLEAR(trace);
        else
            PyList_SET_ITEM(trace, k, row);
    }
    return chain_result(&c, best, trace);
}

static PyObject *tabu(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "jd", "h", "max_moves", "tenure", "seed", NULL};
    int n;
    long long max_moves, tenure;
    PyObject *jd, *h, *seed_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOLLO:tabu", kwlist, &n, &jd, &h,
                                     &max_moves, &tenure, &seed_obj))
        return NULL;
    uint64_t seed = PyLong_AsUnsignedLongLongMask(seed_obj);
    if (PyErr_Occurred())
        return NULL;
    Chain c;
    long long *tabu_until = PyMem_New(long long, (size_t)(n > 0 ? n : 0) + 1);
    if (chain_open(&c, n, jd, h, seed, 0) < 0 || tabu_until == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        chain_close(&c);
        PyMem_Free(tabu_until);
        return NULL;
    }
    double cur, best;
    long long moves = 0;
    Py_BEGIN_ALLOW_THREADS
    cur = best = chain_init(&c);
    memset(tabu_until, 0, (size_t)n * sizeof *tabu_until);
    for (long long move = 1; move <= max_moves; move++) {
        int pick = -1;
        double pick_de = 0.0;
        for (int i = 0; i < n; i++) {
            double de = -2.0 * c.spins[i] * c.fields[i];
            if (move < tabu_until[i] && !(cur + de < best))  /* aspiration */
                continue;
            if (pick < 0 || de < pick_de) {
                pick = i;
                pick_de = de;
            }
        }
        if (pick < 0)
            break;
        chain_flip(&c, pick);
        cur += pick_de;
        tabu_until[pick] = move + tenure;
        moves = move;
        if (cur < best) {
            best = cur;
            memcpy(c.best_spins, c.spins, n);
        }
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(tabu_until);
    return chain_result(&c, best, PyLong_FromLongLong(moves));
}

static PyMethodDef methods[] = {
    {"mix_seed", mix_seed, METH_VARARGS,
     "splitmix64 of (seed, stream), never zero (xorshift state must be)."},
    {"anneal", (PyCFunction)(void (*)(void))anneal, METH_VARARGS | METH_KEYWORDS,
     "Geometric-cooling Metropolis; returns (best_spins, best_energy, trace)."},
    {"tabu", (PyCFunction)(void (*)(void))tabu, METH_VARARGS | METH_KEYWORDS,
     "Best-admissible single-flip tabu search; returns (best_spins, best_energy, moves)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled solver kernels, bit-identical to the pure-Python oracle _kernels_py.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
