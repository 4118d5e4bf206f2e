/* Compiled kernels: the solver's Metropolis annealing and tabu descent, and
 * the decomposition's slice walk and freeze (walk and freeze, at the end,
 * which do integer work only and have their own comment).
 *
 * The solver kernels give results bit-identical to the pure-Python oracle
 * _kernels_py: the same splitmix64 seeding and xorshift64* stream, the same
 * float operation order and tie-breaks, and libm exp/pow.  There are two
 * differences in method, and neither changes a result.  The Metropolis test
 * calls exp only when two cheap bounds cannot decide it (see rejects).  Tabu
 * stops once its search is back in a state it was in since its last
 * improvement, which fixes every later move, and returns what the full budget
 * would (see tabu).  Build with -ffp-contract=off so that no multiply-add is
 * fused.  The inputs are copied into C buffers and the interpreter lock is
 * released around the sweep and move loops.
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

/* ------------------------------------------------------------------ */
/* The slice walk and the freeze, results equal to _kernels_py's walk and
 * freeze.  Both read the per-formula index and the incumbent as Python holds
 * them (dicts, tuples and lists of ints) and create no Python object but
 * their results and, in the freeze, the key of each frozen variable whose
 * value is first read through a negative literal.  Their scratch grows with
 * the variables and clauses they meet, from a 256-slot table; nothing is
 * sized by the formula.  A variable is a Py_ssize_t inside, and each int
 * object they keep is borrowed from the index, which no Python code runs to
 * change while they hold it. */

/* Variables and their flags: an open-addressing table, at most half full,
 * that grows by doubling.  A flag byte of 0 marks an empty slot. */
typedef struct {
    size_t mask, count;
    Py_ssize_t *keys;
    unsigned char *flags;
} VarMap;

/* IN marks a used slot; KNOWN means VALUE holds the variable's value. */
enum { IN = 1, COOLING = 2, SEEN = 4, CHOSEN = 8, KNOWN = 16, VALUE = 32 };

static size_t map_slot(const VarMap *m, Py_ssize_t v)
{
    size_t i = (size_t)(((uint64_t)v * 0x9E3779B97F4A7C15ULL) >> 32) & m->mask;
    while (m->flags[i] && m->keys[i] != v)
        i = (i + 1) & m->mask;
    return i;
}

/* The flags of v, 0 when v is not in the map. */
static unsigned char map_get(const VarMap *m, Py_ssize_t v) { return m->flags[map_slot(m, v)]; }

static int map_alloc(VarMap *m, size_t size)
{
    m->mask = size - 1;
    m->count = 0;
    m->keys = PyMem_New(Py_ssize_t, size);
    m->flags = PyMem_Calloc(size, 1);
    if (m->keys == NULL || m->flags == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void map_free(VarMap *m)
{
    PyMem_Free(m->keys);
    PyMem_Free(m->flags);
}

/* The flags of v, which is added with flags IN if it is not in the map; valid
 * until the next call.  NULL with MemoryError set. */
static unsigned char *map_at(VarMap *m, Py_ssize_t v)
{
    size_t i = map_slot(m, v);
    if (m->flags[i])
        return m->flags + i;
    if (2 * (m->count + 1) > m->mask + 1) {
        VarMap old = *m;
        if (map_alloc(m, 2 * (old.mask + 1)) < 0) {
            map_free(&old);
            return NULL;
        }
        for (size_t j = 0; j <= old.mask; j++)
            if (old.flags[j]) {
                size_t slot = map_slot(m, old.keys[j]);
                m->flags[slot] = old.flags[j];
                m->keys[slot] = old.keys[j];
            }
        m->count = old.count;
        map_free(&old);
        i = map_slot(m, v);
    }
    m->flags[i] = IN;
    m->keys[i] = v;
    m->count++;
    return m->flags + i;
}

/* The value of the int `obj`; -1 with an exception set on error. */
static int var_of(PyObject *obj, Py_ssize_t *out)
{
    *out = PyLong_AsSsize_t(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* Raises KeyError(key), as a dict lookup that misses does. */
static void key_error(PyObject *key)
{
    PyObject *args = PyTuple_Pack(1, key);
    if (args != NULL) {
        PyErr_SetObject(PyExc_KeyError, args);
        Py_DECREF(args);
    }
}

/* A queue of walk variables, each the int object and its value. */
typedef struct {
    PyObject *obj;
    Py_ssize_t v;
} Var;

typedef struct {
    Var *items;
    Py_ssize_t head, tail, size;
} Lane;

static int lane_push(Lane *q, PyObject *obj, Py_ssize_t v)
{
    if (q->tail == q->size) {
        Py_ssize_t size = q->size ? 2 * q->size : 64;
        Var *grown = PyMem_Realloc(q->items, (size_t)size * sizeof *grown);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        q->items = grown;
        q->size = size;
    }
    q->items[q->tail++] = (Var){obj, v};
    return 0;
}

/* Marks v, whose flags are `flags`, seen and queues it: in `parked` if it is
 * cooling, else in `active`.  -1 with MemoryError set. */
static int enqueue(Lane *active, Lane *parked, unsigned char *flags, PyObject *obj,
                   Py_ssize_t v)
{
    *flags |= SEEN;
    return lane_push(*flags & COOLING ? parked : active, obj, v);
}

/* The ancillas that selecting v adds: its triangles whose pair is chosen.
 * -1 with an exception set. */
static Py_ssize_t closed_triangles(PyObject *triangles, const VarMap *vars, PyObject *v)
{
    PyObject *tris = PyDict_GetItemWithError(triangles, v);
    if (tris == NULL)
        return PyErr_Occurred() ? -1 : 0;
    PyObject *fast = PySequence_Fast(tris, "triangles must be sequences");
    if (fast == NULL)
        return -1;
    Py_ssize_t extra = 0;
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(fast); k++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(fast, k);
        Py_ssize_t a, b;
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "a triangle must be a pair");
            extra = -1;
            break;
        }
        if (var_of(PyTuple_GET_ITEM(pair, 0), &a) < 0) {
            extra = -1;
            break;
        }
        if (!(map_get(vars, a) & CHOSEN))
            continue;
        if (var_of(PyTuple_GET_ITEM(pair, 1), &b) < 0) {
            extra = -1;
            break;
        }
        extra += (map_get(vars, b) & CHOSEN) != 0;
    }
    Py_DECREF(fast);
    return extra;
}

/* walk(pushes, triangles, nodes, cooldown, budget, start, depth_first): the
 * oracle's walk.  A lane pops from its head breadth-first and from its tail
 * depth-first. */
static PyObject *walk(PyObject *self, PyObject *args)
{
    PyObject *pushes, *triangles, *nodes, *cooldown, *start;
    Py_ssize_t budget;
    int depth_first;
    if (!PyArg_ParseTuple(args, "O!O!OO!nOp:walk", &PyDict_Type, &pushes, &PyDict_Type,
                          &triangles, &nodes, &PyDict_Type, &cooldown, &budget, &start,
                          &depth_first))
        return NULL;
    PyObject *pending = PySequence_Fast(nodes, "nodes must be a sequence");
    PyObject *selected = PySet_New(NULL);
    VarMap vars = {0};
    Lane active = {0}, parked = {0};
    Py_ssize_t pend = 0, ancillas = 0;
    unsigned char *flags;
    if (pending == NULL || selected == NULL || map_alloc(&vars, 256) < 0)
        goto fail;
    /* no cooldown ticks during a walk, so the cooling vars are read once */
    Py_ssize_t pos = 0;
    PyObject *key, *left, *zero = PyLong_FromLong(0);
    while (PyDict_Next(cooldown, &pos, &key, &left)) {
        Py_ssize_t v;
        int hot = PyObject_RichCompareBool(left, zero, Py_GT);
        if (hot < 0 || (hot && (var_of(key, &v) < 0 || (flags = map_at(&vars, v)) == NULL))) {
            Py_DECREF(zero);
            goto fail;
        }
        if (hot)
            *flags |= COOLING;
    }
    Py_DECREF(zero);
    Var v = {start, 0};
    if (var_of(start, &v.v) < 0 || (flags = map_at(&vars, v.v)) == NULL ||
        enqueue(&active, &parked, flags, v.obj, v.v) < 0)
        goto fail;
    for (;;) {
        Lane *lane = active.head < active.tail ? &active
                     : parked.head < parked.tail ? &parked : NULL;
        if (lane == NULL) {
            /* component exhausted with budget to spare: restart at the
               lowest untouched variable */
            Py_ssize_t size = PySequence_Fast_GET_SIZE(pending);
            for (; pend < size; pend++) {
                v.obj = PySequence_Fast_GET_ITEM(pending, pend);
                if (var_of(v.obj, &v.v) < 0)
                    goto fail;
                if (!(map_get(&vars, v.v) & SEEN))
                    break;
            }
            if (pend == size)
                break;
            if ((flags = map_at(&vars, v.v)) == NULL ||
                enqueue(&active, &parked, flags, v.obj, v.v) < 0)
                goto fail;
            continue;
        }
        v = depth_first ? lane->items[--lane->tail] : lane->items[lane->head++];
        if (PySet_Add(selected, v.obj) < 0)
            goto fail;
        *map_at(&vars, v.v) |= CHOSEN;  /* v is in the map: nothing is added */
        Py_ssize_t extra = closed_triangles(triangles, &vars, v.obj);
        if (extra < 0)
            goto fail;
        if (PySet_GET_SIZE(selected) + ancillas + extra > budget) {
            if (PySet_Discard(selected, v.obj) < 0)
                goto fail;
            break;
        }
        ancillas += extra;
        PyObject *nbrs = PyDict_GetItemWithError(pushes, v.obj), *fast;
        if (nbrs == NULL) {
            if (!PyErr_Occurred())
                key_error(v.obj);
            goto fail;
        }
        if ((fast = PySequence_Fast(nbrs, "neighbours must be sequences")) == NULL)
            goto fail;
        for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(fast); k++) {
            PyObject *u = PySequence_Fast_GET_ITEM(fast, k);
            Py_ssize_t uv;
            if (var_of(u, &uv) < 0 || (flags = map_at(&vars, uv)) == NULL ||
                (!(*flags & SEEN) && enqueue(&active, &parked, flags, u, uv) < 0)) {
                Py_DECREF(fast);
                goto fail;
            }
        }
        Py_DECREF(fast);
    }
    goto done;
fail:
    Py_CLEAR(selected);
done:
    Py_XDECREF(pending);
    map_free(&vars);
    PyMem_Free(active.items);
    PyMem_Free(parked.items);
    return selected;
}

/* Merges the ascending runs a[bounds[r] .. bounds[r + 1] - 1], r < runs,
 * pairwise through b; returns the buffer that holds the merged run. */
static Py_ssize_t *merge_runs(Py_ssize_t *a, Py_ssize_t *b, Py_ssize_t *bounds, Py_ssize_t runs)
{
    while (runs > 1) {
        Py_ssize_t pairs = 0;
        for (Py_ssize_t r = 0; r < runs; r += 2, pairs++) {
            Py_ssize_t i = bounds[r], mid = bounds[r + 1];
            Py_ssize_t end = bounds[r + 2 <= runs ? r + 2 : r + 1], j = mid, o = i;
            while (i < mid && j < end)
                b[o++] = a[j] < a[i] ? a[j++] : a[i++];
            while (i < mid)
                b[o++] = a[i++];
            while (j < end)
                b[o++] = a[j++];
            bounds[pairs] = bounds[r];
        }
        bounds[pairs] = bounds[runs];
        runs = pairs;
        Py_ssize_t *t = a;
        a = b;
        b = t;
    }
    return a;
}

/* The clauses of the selected vars, ascending with repeats, in one buffer
 * of `*total` entries; NULL with an exception set. */
static Py_ssize_t *visit_order(PyObject *occurrences, PyObject *sel, Py_ssize_t *total)
{
    Py_ssize_t nsel = PySequence_Fast_GET_SIZE(sel), size = 0, runs = 0;
    PyObject **held = PyMem_New(PyObject *, (size_t)nsel + 1);
    Py_ssize_t *bounds = PyMem_New(Py_ssize_t, (size_t)nsel + 2), *buf = NULL, *out = NULL;
    if (held == NULL || bounds == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < nsel; k++) {
        PyObject *var = PySequence_Fast_GET_ITEM(sel, k), *occ;
        if (PyDict_Check(occurrences)) {
            occ = PyDict_GetItemWithError(occurrences, var);
            Py_XINCREF(occ);
        } else if ((occ = PyObject_GetItem(occurrences, var)) == NULL &&
                   PyErr_ExceptionMatches(PyExc_KeyError)) {
            PyErr_Clear();
        }
        if (occ == NULL) {
            if (PyErr_Occurred())
                goto done;
            continue;
        }
        held[runs] = PySequence_Fast(occ, "occurrence lists must be sequences");
        Py_DECREF(occ);
        if (held[runs] == NULL)
            goto done;
        size += PySequence_Fast_GET_SIZE(held[runs]);
        runs++;
    }
    if ((buf = PyMem_New(Py_ssize_t, 2 * (size_t)size + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t at = 0;
    for (Py_ssize_t r = 0; r < runs; r++) {
        bounds[r] = at;
        for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(held[r]); k++, at++) {
            if (var_of(PySequence_Fast_GET_ITEM(held[r], k), buf + at) < 0)
                goto done;
            if (k > 0 && buf[at] < buf[at - 1]) {
                PyErr_SetString(PyExc_ValueError, "an occurrence list is not ascending");
                goto done;
            }
        }
    }
    bounds[runs] = at;
    Py_ssize_t *merged = merge_runs(buf, buf + size, bounds, runs);
    if (merged != buf)
        memcpy(buf, merged, (size_t)size * sizeof *buf);
    *total = size;
    out = buf;
    buf = NULL;
done:
    for (Py_ssize_t r = 0; r < runs; r++)
        Py_XDECREF(held[r]);
    PyMem_Free(held);
    PyMem_Free(bounds);
    PyMem_Free(buf);
    return out;
}

/* Whether the frozen literal `lit` of variable v is true, its value read from
 * `assignment` once per call and kept in `flags`; -1 with an exception set. */
static int frozen_true(PyObject *assignment, PyObject *lit, Py_ssize_t lv, Py_ssize_t v,
                       unsigned char *flags)
{
    if (!(*flags & KNOWN)) {
        PyObject *key = lv > 0 ? lit : PyLong_FromSsize_t(v), *value;
        if (key == NULL)
            return -1;
        int truth = -1;
        if ((value = PyDict_GetItemWithError(assignment, key)) == NULL) {
            if (!PyErr_Occurred())
                key_error(key);
        } else {
            truth = PyObject_IsTrue(value);
        }
        if (key != lit)
            Py_DECREF(key);
        if (truth < 0)
            return -1;
        *flags |= KNOWN | (truth ? VALUE : 0);
    }
    return (lv > 0) == ((*flags & VALUE) != 0);
}

/* freeze(clauses, occurrences, selected, assignment, true_count): the
 * oracle's freeze.  The clauses of the selected vars are visited in
 * ascending order, each once, by a merge of their ascending occurrence
 * lists; nothing the size of the formula is read or allocated. */
static PyObject *freeze(PyObject *self, PyObject *args)
{
    PyObject *clauses, *occurrences, *selected, *assignment, *true_count;
    if (!PyArg_ParseTuple(args, "OOOO!O:freeze", &clauses, &occurrences, &selected,
                          &PyDict_Type, &assignment, &true_count))
        return NULL;
    PyObject *sel = PySequence_Fast(selected, "selected must be iterable");
    PyObject *rows = PySequence_Fast(clauses, "clauses must be a sequence");
    PyObject *counts = PySequence_Fast(true_count, "true_count must be a sequence");
    PyObject *kept = PyList_New(0), *row = NULL, *out = NULL, **lits = NULL;
    Py_ssize_t *visit = NULL, nvisit = 0, width = 0, unsat = 0;
    VarMap vars = {0};
    if (sel == NULL || rows == NULL || counts == NULL || kept == NULL ||
        map_alloc(&vars, 256) < 0)
        goto done;
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(sel); k++) {
        Py_ssize_t v;
        unsigned char *flags;
        if (var_of(PySequence_Fast_GET_ITEM(sel, k), &v) < 0 || (flags = map_at(&vars, v)) == NULL)
            goto done;
        *flags |= CHOSEN;
    }
    if ((visit = visit_order(occurrences, sel, &nvisit)) == NULL)
        goto done;
    Py_ssize_t nrows = PySequence_Fast_GET_SIZE(rows);
    for (Py_ssize_t at = 0; at < nvisit; at++) {
        Py_ssize_t ci = visit[at];
        if (at > 0 && ci == visit[at - 1])
            continue;
        if (ci < 0 || ci >= nrows || ci >= PySequence_Fast_GET_SIZE(counts)) {
            PyErr_SetString(PyExc_IndexError, "clause index out of range");
            goto done;
        }
        int sat = PyObject_IsTrue(PySequence_Fast_GET_ITEM(counts, ci));
        if (sat < 0)
            goto done;
        unsat += !sat;
        Py_XDECREF(row);
        row = PySequence_Fast(PySequence_Fast_GET_ITEM(rows, ci), "a clause must be a sequence");
        if (row == NULL)
            goto done;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(row), nlits = 0;
        if (n > width) {
            PyObject **grown = PyMem_Realloc(lits, (size_t)n * sizeof *grown);
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            lits = grown;
            width = n;
        }
        int dropped = 0;  /* by a true frozen literal */
        for (Py_ssize_t k = 0; k < n && !dropped; k++) {
            PyObject *lit = PySequence_Fast_GET_ITEM(row, k);
            Py_ssize_t lv;
            unsigned char *flags;
            if (var_of(lit, &lv) < 0 || (flags = map_at(&vars, lv < 0 ? -lv : lv)) == NULL)
                goto done;
            if (*flags & CHOSEN)
                lits[nlits++] = lit;
            else if ((dropped = frozen_true(assignment, lit, lv, lv < 0 ? -lv : lv, flags)) < 0)
                goto done;
        }
        if (dropped)
            continue;
        PyObject *clause = PyTuple_New(nlits);
        if (clause == NULL)
            goto done;
        for (Py_ssize_t k = 0; k < nlits; k++) {
            Py_INCREF(lits[k]);
            PyTuple_SET_ITEM(clause, k, lits[k]);
        }
        int failed = PyList_Append(kept, clause);
        Py_DECREF(clause);
        if (failed < 0)
            goto done;
    }
    out = Py_BuildValue("(On)", kept, unsat);
done:
    Py_XDECREF(sel);
    Py_XDECREF(rows);
    Py_XDECREF(counts);
    Py_XDECREF(kept);
    Py_XDECREF(row);
    PyMem_Free(visit);
    PyMem_Free(lits);
    map_free(&vars);
    return out;
}

static PyMethodDef methods[] = {
    {"mix_seed", mix_seed, METH_VARARGS,
     "splitmix64 of (seed, stream), never zero (xorshift state must be)."},
    {"anneal", (PyCFunction)(void (*)(void))anneal, METH_VARARGS | METH_KEYWORDS,
     "Geometric-cooling Metropolis; returns (best_spins, best_energy, trace)."},
    {"tabu", (PyCFunction)(void (*)(void))tabu, METH_VARARGS | METH_KEYWORDS,
     "Best-admissible single-flip tabu search; returns (best_spins, best_energy, moves)."},
    {"walk", walk, METH_VARARGS,
     "The spin-budgeted walk from start; returns the selected set."},
    {"freeze", freeze, METH_VARARGS,
     "The kept clauses of a slice in clause order, and the visited unsatisfied count."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled solver and slice kernels, results identical to _kernels_py; jd must be symmetric.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
