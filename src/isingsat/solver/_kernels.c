/* Compiled solver kernels: Metropolis annealing and tabu descent.
 *
 * Gives results bit-identical to the pure-Python oracle _kernels_py: the
 * same splitmix64 seeding and xorshift64* stream, the same float operation
 * order and tie-breaks, and libm exp/pow.  There are two differences in
 * method, and neither changes a result.  The Metropolis test calls exp only
 * when two cheap bounds cannot decide it (see rejects).  Tabu stops once its
 * search is back in a state it was in since its last improvement, which
 * fixes every later move, and returns what the full budget would (see
 * tabu).  Build with -ffp-contract=off so that no multiply-add is fused.
 * The inputs are copied into C buffers and the interpreter lock is released
 * around the sweep and move loops.
 *
 * The couplings arrive as a dense row-major n*n matrix jd, symmetric with a
 * zero diagonal, which is the oracle's layout.  chain_open reads it once and
 * keeps only its nonzero entries, as per-spin neighbour lists: spin i's links
 * are links[start[i]] .. links[start[i + 1] - 1], in ascending neighbour
 * order, each holding the neighbour q, J = jd[i*n + q] and 2*J.  A field is
 * summed over its row's links and a flip of spin i updates only the fields
 * of its links, so a flip costs the spin's degree rather than n.
 *
 * Skipping the zero entries changes no result.  Each skipped term is
 * 0 * s or 2 * 0 * s, a zero, and the nonzero terms are added in the
 * oracle's order.  x + +-0 is x for every nonzero x (inf and NaN included),
 * so a field can differ from the oracle's only where both are zero, and then
 * only in the sign of that zero.  A de of either zero fails de > 0, and
 * cur < best, cur + de < best and de < pick_de treat the two zeros alike, so
 * every flip is the oracle's.  The energy starts at +0.0 and +0.0 + -0.0 is
 * +0.0, so the energies and trace rows are bit-identical too.  A caller can
 * meet a differing zero only by passing h_i = -0.0: that field stays -0.0
 * here where the oracle's +0.0 terms may turn it to +0.0, and this is never
 * returned.  Every zero entry of jd, +0.0 or -0.0, is dropped.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define STAR 0x2545F4914F6CDD1DULL

typedef struct {
    double j, j2;  /* J and 2*J */
    int q;         /* the neighbour */
} Link;

typedef struct {
    int n;
    uint64_t state;
    Py_ssize_t *start;   /* n + 1: spin i's links begin at links + start[i] */
    Link *links;
    double *h, *fields;  /* n, n */
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

/* The items of `seq`, which must number at least `count`, as a new reference
   to a list or tuple; NULL with an exception set. */
static PyObject *items_of(PyObject *seq, Py_ssize_t count)
{
    PyObject *fast = PySequence_Fast(seq, "couplings and fields must be sequences");
    if (fast != NULL && PySequence_Fast_GET_SIZE(fast) < count) {
        PyErr_Format(PyExc_ValueError, "need %zd coefficients, got %zd", count,
                     PySequence_Fast_GET_SIZE(fast));
        Py_CLEAR(fast);
    }
    return fast;
}

/* The value of a float or of any object with __float__ (an int, say), read
   directly when it is an exact float; -1.0 with an exception set on error. */
static double as_double(PyObject *v)
{
    return PyFloat_CheckExact(v) ? PyFloat_AS_DOUBLE(v) : PyFloat_AsDouble(v);
}

/* Copies `count` floats from a sequence; returns -1 with an exception set. */
static int load(PyObject *seq, Py_ssize_t count, double *out)
{
    PyObject *fast = items_of(seq, count);
    if (fast == NULL)
        return -1;
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t k = 0; k < count; k++) {
        double v = as_double(items[k]);
        if (v == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[k] = v;
    }
    Py_DECREF(fast);
    return 0;
}

/* Reads the dense row-major n*n jd in one pass into the neighbour lists,
   keeping its nonzero entries; returns -1 with an exception set. */
static int load_links(Chain *c, PyObject *jd)
{
    int n = c->n;
    PyObject *fast = items_of(jd, (Py_ssize_t)n * n);
    if (fast == NULL)
        return -1;
    PyObject **items = PySequence_Fast_ITEMS(fast);
    Py_ssize_t used = 0, size = 4 * (Py_ssize_t)n + 1;
    if ((c->links = PyMem_New(Link, size)) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int i = 0; i < n; i++) {
        c->start[i] = used;
        for (int q = 0; q < n; q++) {
            double v = as_double(items[(Py_ssize_t)i * n + q]);
            if (v == -1.0 && PyErr_Occurred())
                goto fail;
            if (v == 0.0)
                continue;
            if (used == size) {
                size *= 2;
                Link *grown = PyMem_Realloc(c->links, (size_t)size * sizeof *grown);
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                c->links = grown;
            }
            c->links[used++] = (Link){v, 2.0 * v, q};
        }
    }
    c->start[n] = used;
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    return -1;
}

/* Allocates the chain's buffers (plus `extra` doubles at fields + n) and
   reads the coefficients; returns -1 with an exception set. */
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
    c->start = PyMem_New(Py_ssize_t, (size_t)n + 1);
    c->h = PyMem_New(double, 2 * (size_t)n + extra + 1);
    c->spins = PyMem_New(signed char, 2 * (size_t)n + 1);
    if (c->start == NULL || c->h == NULL || c->spins == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->fields = c->h + n;
    c->best_spins = c->spins + n;
    if (load_links(c, jd) < 0 || load(h, n, c->h) < 0)
        return -1;
    return 0;
}

static void chain_close(Chain *c)
{
    PyMem_Free(c->start);
    PyMem_Free(c->links);
    PyMem_Free(c->h);
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
        const Link *l = c->links + c->start[i], *end = c->links + c->start[i + 1];
        for (; l < end; l++)
            acc += l->j * c->spins[l->q];
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
    c->spins[i] = -c->spins[i];
    signed char si = c->spins[i];
    const Link *l = c->links + c->start[i], *end = c->links + c->start[i + 1];
    for (; l < end; l++)
        c->fields[l->q] += l->j2 * si;
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

/* The Metropolis test for an uphill move, u >= exp(-de / t), which the
 * oracle evaluates as written, decided here without exp where a bound can.
 * With x = de / t (the exact test computes (-de) / t, which is exactly -x):
 *   - the cubic Taylor sum p(x) = 1 + x + x^2/2 + x^3/6 is <= e^x for every
 *     real x (the remainder e^z x^4/24 is >= 0), so u * p(x) >= 1 + 1e-9
 *     means u > e^-x: reject.  For x < 0, p(x) <= 1, so this never fires;
 *   - 1 - x <= e^-x for every real x, so u < 1 - x - 1e-9 means u < e^-x:
 *     accept.
 * Rounding matters only where a comparison is close, and there both sides
 * are at most about 1: each bound is then off by a few 1e-16 and libm's
 * exp by under one ulp, so the 1e-9 margins keep every decision the one
 * the exact test makes.  When x = inf (t underflowed), u * p(x) is inf
 * for u > 0, a reject as exp(-inf) = 0 gives, and NaN for u = 0, while
 * 1 - x = -inf: at u = 0 neither bound fires and the exact test decides.
 * A NaN x fails both comparisons, so the exact test decides it too.
 */
static int rejects(double de, double t, double u)
{
    double x = de / t;
    if (u * (1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0)))) >= 1.0 + 1e-9)
        return 1;
    if (u < 1.0 - x - 1e-9)
        return 0;
    return u >= exp(-de / t);
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
    /* a zero t0 would turn t into NaN after the first sweep */
    if (!(t0 > 0.0 && t0 < HUGE_VAL && t1 > 0.0 && t1 < HUGE_VAL)) {
        PyErr_SetString(PyExc_ValueError, "t0 and t1 must be positive and finite");
        return NULL;
    }
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
            if (de > 0.0 && rejects(de, t, unif(step(&c.state))))
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

/* A saved tabu search state: the energy, spins and fields, bit for bit, and
 * each spin's remaining tabu moves, max(0, through - move).  Tabu draws no
 * random numbers after chain_init, so with best fixed this state fixes
 * every later move. */
typedef struct {
    double cur;
    double *fields;      /* n */
    long long *left;     /* n */
    signed char *spins;  /* n */
} Mark;

static long long tabu_left(long long through, long long move)
{
    return through > move ? through - move : 0;
}

static void mark_save(Mark *m, const Chain *c, double cur, const long long *through,
                      long long move)
{
    m->cur = cur;
    memcpy(m->spins, c->spins, c->n);
    memcpy(m->fields, c->fields, (size_t)c->n * sizeof *m->fields);
    for (int i = 0; i < c->n; i++)
        m->left[i] = tabu_left(through[i], move);
}

/* Whether the search is back in the saved state.  The energy goes first:
   it differs at most moves, and then nothing else is read. */
static int mark_reached(const Mark *m, const Chain *c, double cur, const long long *through,
                        long long move)
{
    if (cur != m->cur || memcmp(&cur, &m->cur, sizeof cur) ||
        memcmp(c->spins, m->spins, c->n) ||
        memcmp(c->fields, m->fields, (size_t)c->n * sizeof *m->fields))
        return 0;
    for (int i = 0; i < c->n; i++)
        if (tabu_left(through[i], move) != m->left[i])
            return 0;
    return 1;
}

/* Best-admissible single-flip tabu search.  A flip at move m keeps the spin
 * tabu through move m + tenure - 1 (the oracle's tabu_until less one),
 * saturated at LLONG_MAX, where it stays tabu to the end of any budget.
 *
 * The cycle exit: a state reached again after the last improvement, with
 * the same best, repeats the moves between forever, none of which improved
 * or found no admissible spin.  So the rest of the budget can return nothing
 * new, and the loop stops with the full budget's result, moves = max_moves.
 * Brent's cycle finder (BIT 20, 176 (1980)) spots the repeat with one saved
 * state: the state is saved at the last improvement (or the start) and 1, 2,
 * 4, 8, ... moves after it, and every state in between is compared with the
 * saved one, the energy first, so most moves pay one comparison.  Saving
 * afresh at each improvement keeps best fixed since the saved state. */
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
    size_t size = (size_t)(n > 0 ? n : 0) + 1;
    /* the last tabu move of each spin, then the saved state's left */
    long long *through = PyMem_New(long long, 2 * size);
    Mark mark = {.spins = PyMem_New(signed char, size)};
    if (chain_open(&c, n, jd, h, seed, n) < 0 || through == NULL || mark.spins == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        chain_close(&c);
        PyMem_Free(through);
        PyMem_Free(mark.spins);
        return NULL;
    }
    mark.fields = c.fields + n;
    mark.left = through + size;
    double cur, best;
    long long moves = 0, since = 0;  /* since: moves since the last improvement */
    Py_BEGIN_ALLOW_THREADS
    cur = best = chain_init(&c);
    memset(through, 0, (size_t)n * sizeof *through);
    mark_save(&mark, &c, cur, through, 0);
    for (long long done = 0; done < max_moves; done++) {
        long long move = done + 1;
        int pick = -1;
        double pick_de = 0.0;
        for (int i = 0; i < n; i++) {
            double de = -2.0 * c.spins[i] * c.fields[i];
            if (move <= through[i] && !(cur + de < best))  /* aspiration */
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
        through[pick] = tenure > LLONG_MAX - done ? LLONG_MAX : done + tenure;
        moves = move;
        if (cur < best) {
            best = cur;
            memcpy(c.best_spins, c.spins, n);
            since = 0;
        } else if (mark_reached(&mark, &c, cur, through, move)) {
            moves = max_moves;
            break;
        } else {
            since++;
        }
        if ((since & (since - 1)) == 0)  /* 0 or a power of two */
            mark_save(&mark, &c, cur, through, move);
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(through);
    PyMem_Free(mark.spins);
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
    "Compiled solver kernels, results bit-identical to _kernels_py; jd must be symmetric.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
