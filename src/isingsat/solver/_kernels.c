/* Compiled kernels: the solver's Metropolis annealing and tabu descent, the
 * decomposition's slice walk, freeze and merge and a repeat's start tally,
 * the slice's model build, qubo and ising, and its chip scaling (walk,
 * freeze, merge and tally, then qubo and ising, then scale, at the end,
 * each group with its own comment).  From the walk to the merge a slice
 * stays in ranks and literal codes, so no variable number reaches this
 * module.  The walk, the freeze and the merge read build_vig's flat int
 * tables, whose rows are numbered by node rank, read or write a repeat's
 * state in its flat per-rank arrays in place, and keep their per-rank marks
 * in the caller's flag array, which they clear before they return, on error
 * too, so no call does work or allocates memory in proportion to the
 * formula; the tally, once per repeat, makes that state from the clause
 * table.  The model build is exact: its coefficients are small integers
 * from the 14-row gadget table, which ising only halves and quarters, so it
 * rounds nothing and gives the oracle's floats bit for bit.  The chip
 * scaling rounds, in doubles, as the oracle rounds Python floats, and gives
 * its floats bit for bit, zero signs included.
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
/* The slice walk, the freeze, the merge and the start tally, results equal
 * to _kernels_py's walk, freeze, merge and tally.  They read build_vig's
 * index, in which the variables the formula holds are numbered by rank,
 * their position in the ascending Vig.nodes; none of these sees a variable
 * number.  Each table is one array('i') t whose row i is t[t[i]] ..
 * t[t[i + 1] - 1], holding ranks, clause indices or literal codes (2r for
 * node r, 2r + 1 for its negation).  The walk takes a start rank and returns
 * the selected ranks, the freeze takes those and returns the kept clauses
 * as tuples of literal codes, and the merge takes a slice's ranks, one per
 * spin.  The state they read and write is GlobalState's flat arrays: a
 * value byte per rank, an array('i') of true-literal counts per clause and
 * one of unsatisfied degrees per rank, and the pool, a list of ranks; the
 * tally makes the counts, the degrees and the pool from the value bytes.  A
 * row is checked when it is read, its offsets against the table and its
 * items against what they index; one outside is an IndexError, as in the
 * oracle.  The scratch is the caller's flag array, one byte per node and
 * all zero on entry.  A call sets flags only on the ranks it touches, lists
 * each in `touched` when its byte first turns nonzero, and clears exactly
 * those before it returns, error returns included, so nothing the walk, the
 * freeze or the merge does is sized by the formula. */

enum { COOLING = 1, SEEN = 2, CHOSEN = 4, FLIPS = 8, TURNS_TRUE = 16 };

/* A growable list of ranks; as a lane it pops from its head breadth-first
 * and from its tail depth-first. */
typedef struct {
    Py_ssize_t *items;
    Py_ssize_t head, tail, size;
} Ranks;

static int ranks_push(Ranks *q, Py_ssize_t r)
{
    if (q->tail == q->size) {
        Py_ssize_t size = q->size ? 2 * q->size : 64;
        Py_ssize_t *grown = PyMem_Realloc(q->items, (size_t)size * sizeof *grown);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        q->items = grown;
        q->size = size;
    }
    q->items[q->tail++] = r;
    return 0;
}

/* The caller's flags, one per node, and the ranks a call set. */
typedef struct {
    unsigned char *flags;
    Ranks touched;
} Marks;

/* Raises the IndexError `msg`; returns -1. */
static int outside(const char *msg)
{
    PyErr_SetString(PyExc_IndexError, msg);
    return -1;
}

/* Raises the ValueError `msg`; returns -1. */
static int refuse(const char *msg)
{
    PyErr_SetString(PyExc_ValueError, msg);
    return -1;
}

/* Sets `bit` on rank r; -1 with MemoryError set. */
static int mark(Marks *m, Py_ssize_t r, unsigned char bit)
{
    if (!m->flags[r] && ranks_push(&m->touched, r) < 0)
        return -1;
    m->flags[r] |= bit;
    return 0;
}

/* Opens the flag array; -1 with ValueError set unless it has a byte for
 * each of the n nodes. */
static int marks_open(Marks *m, Py_buffer *flags, Py_ssize_t n)
{
    *m = (Marks){flags->buf, {0}};
    return flags->len == n ? 0 : refuse("the flag array must hold one byte per node");
}

/* Clears every flag the call set and frees its list. */
static void marks_close(Marks *m)
{
    for (Py_ssize_t k = 0; k < m->touched.tail; k++)
        m->flags[m->touched.items[k]] = 0;
    PyMem_Free(m->touched.items);
}

/* The rank `key` names, which must lie in 0 .. n - 1: -1 with TypeError
 * unless it is an integer, or with the IndexError `msg` outside. */
static Py_ssize_t rank_in(PyObject *key, Py_ssize_t n, const char *msg)
{
    Py_ssize_t r = PyNumber_AsSsize_t(key, NULL);  /* clipped, so a big int is outside */
    if (r == -1 && PyErr_Occurred())
        return -1;
    return r >= 0 && r < n ? r : outside(msg);
}

/* Opens `obj`, which must be an array('i') or another contiguous buffer of
 * C ints, writable if asked; -1 with an exception set. */
static int ints_open(PyObject *obj, Py_buffer *view, int writable)
{
    int want = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, want) < 0)
        return -1;
    if (view->itemsize != sizeof(int) || strcmp(view->format, "i") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, "an index table or a count array must be an array('i')");
        return -1;
    }
    return 0;
}

/* The number of ints in an opened int buffer. */
static Py_ssize_t ints_len(const Py_buffer *view) { return view->len / (Py_ssize_t)sizeof(int); }

/* The number of rows of an opened table; an empty one has none.  The
 * header is widened first, so a header of INT_MIN does not overflow. */
static Py_ssize_t rows(const Py_buffer *table)
{
    return table->len ? (Py_ssize_t)((const int *)table->buf)[0] - 1 : 0;
}

/* Row i of the table as [*lo, *hi), each item checked to lie in
 * 0 .. bound - 1; -1 with IndexError when i, the row or an item lies
 * outside. */
static int row(const Py_buffer *table, Py_ssize_t i, Py_ssize_t bound, const int **lo,
               const int **hi)
{
    const int *t = table->buf;
    Py_ssize_t len = ints_len(table);
    if (len == 0 || i < 0 || i + 1 >= t[0] || t[0] > len || t[i] < 0 || t[i] > t[i + 1] ||
        t[i + 1] > len)
        return outside("a row is outside the index");
    for (const int *p = t + t[i]; p < t + t[i + 1]; p++)
        if (*p < 0 || *p >= bound)
            return outside("an item is outside the index");
    *lo = t + t[i];
    *hi = t + t[i + 1];
    return 0;
}

/* Marks rank r seen and queues it: in `parked` if it is cooling, else in
 * `active`.  -1 with MemoryError set. */
static int enqueue(Marks *m, Ranks *active, Ranks *parked, Py_ssize_t r)
{
    if (mark(m, r, SEEN) < 0)
        return -1;
    return ranks_push(m->flags[r] & COOLING ? parked : active, r);
}

/* walk(pushes, triangles, cooldown, flags, budget, start, depth_first):
 * the oracle's walk. */
static PyObject *walk(PyObject *self, PyObject *args)
{
    PyObject *push_table, *tri_table, *cooldown, *start;
    Py_buffer flags;
    Py_ssize_t budget;
    int depth_first;
    if (!PyArg_ParseTuple(args, "OOO!w*nOp:walk", &push_table, &tri_table, &PyDict_Type,
                          &cooldown, &flags, &budget, &start, &depth_first))
        return NULL;
    Py_buffer pushes = {0}, tris = {0};
    Marks m = {0};
    Ranks active = {0}, parked = {0};
    PyObject *selected = PySet_New(NULL);
    Py_ssize_t r, n = flags.len, pend = 0, nsel = 0, ancillas = 0;
    if (selected == NULL || ints_open(push_table, &pushes, 0) < 0 ||
        ints_open(tri_table, &tris, 0) < 0 || marks_open(&m, &flags, rows(&pushes)) < 0)
        goto fail;
    /* no cooldown ticks during a walk, so the cooling ranks are marked once;
       one outside the index is never reached */
    Py_ssize_t pos = 0;
    PyObject *key, *left;
    while (PyDict_Next(cooldown, &pos, &key, &left)) {
        if ((r = PyNumber_AsSsize_t(key, NULL)) == -1 && PyErr_Occurred())
            goto fail;
        if (r >= 0 && r < n && mark(&m, r, COOLING) < 0)
            goto fail;
    }
    if ((r = rank_in(start, n, "the start is not a node of the index")) < 0 ||
        enqueue(&m, &active, &parked, r) < 0)
        goto fail;
    for (;;) {
        Ranks *lane = active.head < active.tail ? &active
                      : parked.head < parked.tail ? &parked : NULL;
        if (lane == NULL) {
            /* component exhausted with budget to spare: restart at the
               lowest untouched rank, the lowest variable */
            while (pend < n && (m.flags[pend] & SEEN))
                pend++;
            if (pend == n)
                break;
            if (enqueue(&m, &active, &parked, pend) < 0)
                goto fail;
            continue;
        }
        r = depth_first ? lane->items[--lane->tail] : lane->items[lane->head++];
        m.flags[r] |= CHOSEN;  /* r is seen, so it is listed already */
        /* the ancillas that selecting r adds: its triangles whose pair is chosen */
        Py_ssize_t extra = 0;
        const int *t, *end;
        if (row(&tris, r, n, &t, &end) < 0)
            goto fail;
        for (; end - t >= 2; t += 2)
            extra += (m.flags[t[0]] & m.flags[t[1]] & CHOSEN) != 0;
        if (++nsel + ancillas + extra > budget)
            break;
        ancillas += extra;
        PyObject *v = PyLong_FromSsize_t(r);
        int added = v == NULL ? -1 : PySet_Add(selected, v);
        Py_XDECREF(v);
        if (added < 0 || row(&pushes, r, n, &t, &end) < 0)
            goto fail;
        for (; t < end; t++)
            if (!(m.flags[*t] & SEEN) && enqueue(&m, &active, &parked, *t) < 0)
                goto fail;
    }
    goto done;
fail:
    Py_CLEAR(selected);
done:
    marks_close(&m);
    PyBuffer_Release(&pushes);
    PyBuffer_Release(&tris);
    PyBuffer_Release(&flags);
    PyMem_Free(active.items);
    PyMem_Free(parked.items);
    return selected;
}

/* Opens the tables and the state that freeze and merge share, checked in
 * the oracle's order; the number of nodes, the rows of the occurrence
 * table, or -1 with an exception set. */
static Py_ssize_t state_open(Marks *m, Py_buffer *flags, const Py_buffer *values,
                             PyObject *count_obj, Py_buffer *counts, int writable,
                             PyObject *clause_table, Py_buffer *cls, PyObject *occ_table,
                             Py_buffer *occ)
{
    if (ints_open(clause_table, cls, 0) < 0 || ints_open(occ_table, occ, 0) < 0 ||
        ints_open(count_obj, counts, writable) < 0 || marks_open(m, flags, rows(occ)) < 0)
        return -1;
    if (values->len != flags->len)
        return refuse("the value array must hold one byte per node");
    if (ints_len(counts) != rows(cls))
        return refuse("true_count must hold one count per clause");
    return flags->len;
}

/* Merges the ascending runs a[bounds[r] .. bounds[r + 1] - 1], r < runs,
 * pairwise through b; returns the buffer that holds the merged run.  The
 * freeze and the merge merge clause indices with it, and qubo sorts its
 * literals by rank as runs of one. */
static int64_t *merge_runs(int64_t *a, int64_t *b, Py_ssize_t *bounds, Py_ssize_t runs)
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
        int64_t *t = a;
        a = b;
        b = t;
    }
    return a;
}

/* The clauses of the ranks `sel`, ascending with repeats, in one buffer of
 * `*total` entries, each below `nclauses`; NULL with an exception set. */
static int64_t *visit_order(const Py_buffer *occ, const Ranks *sel, Py_ssize_t nclauses,
                            Py_ssize_t *total)
{
    Py_ssize_t size = 0, at = 0, nsel = sel->tail;
    Py_ssize_t *bounds = PyMem_New(Py_ssize_t, (size_t)nsel + 2);
    int64_t *buf = NULL, *out = NULL;
    const int *lo, *hi;
    if (bounds == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t r = 0; r < nsel; r++) {
        if (row(occ, sel->items[r], nclauses, &lo, &hi) < 0)
            goto done;
        for (const int *c = lo + 1; c < hi; c++)
            if (*c < c[-1]) {
                refuse("an occurrence list is not ascending");
                goto done;
            }
        size += hi - lo;
    }
    if ((buf = PyMem_New(int64_t, 2 * (size_t)size + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t r = 0; r < nsel; r++) {
        row(occ, sel->items[r], nclauses, &lo, &hi);  /* checked above */
        bounds[r] = at;
        while (lo < hi)
            buf[at++] = *lo++;
    }
    bounds[nsel] = at;
    int64_t *merged = merge_runs(buf, buf + size, bounds, nsel);
    if (merged != buf)
        memcpy(buf, merged, (size_t)size * sizeof *buf);
    *total = size;
    out = buf;
    buf = NULL;
done:
    PyMem_Free(bounds);
    PyMem_Free(buf);
    return out;
}

/* freeze(clauses, occurrences, selected, values, true_count, flags): the
 * oracle's freeze.  The clauses of the selected ranks are visited in
 * ascending order, each once, by a merge of their ascending occurrence
 * rows; values and counts are read from their buffers, and a kept clause is
 * the tuple of its selected literal codes. */
static PyObject *freeze(PyObject *self, PyObject *args)
{
    PyObject *clause_table, *occ_table, *selected, *count_obj;
    Py_buffer values, flags;
    if (!PyArg_ParseTuple(args, "OOOy*Ow*:freeze", &clause_table, &occ_table, &selected,
                          &values, &count_obj, &flags))
        return NULL;
    Py_buffer cls = {0}, occ = {0}, counts = {0};
    Marks m = {0};
    PyObject *kept = PyList_New(0), *out = NULL, *it = NULL, *item;
    int64_t *visit = NULL;
    Py_ssize_t r, n = flags.len, nvisit = 0, unsat = 0;
    if (kept == NULL || state_open(&m, &flags, &values, count_obj, &counts, 0, clause_table,
                                   &cls, occ_table, &occ) < 0 ||
        (it = PyObject_GetIter(selected)) == NULL)
        goto done;
    while ((item = PyIter_Next(it)) != NULL) {
        r = rank_in(item, n, "a selected rank is outside the nodes");
        Py_DECREF(item);
        if (r < 0 || mark(&m, r, CHOSEN) < 0)
            goto done;
    }
    /* only the chosen ranks are listed yet */
    if (PyErr_Occurred() ||
        (visit = visit_order(&occ, &m.touched, rows(&cls), &nvisit)) == NULL)
        goto done;
    const unsigned char *vals = values.buf;
    const int *tc = counts.buf;
    for (Py_ssize_t at = 0; at < nvisit; at++) {
        int ci = (int)visit[at];
        if (at > 0 && ci == visit[at - 1])
            continue;
        unsat += !tc[ci];
        const int *lo, *hi, *l;
        if (row(&cls, ci, 2 * n, &lo, &hi) < 0)
            goto done;
        Py_ssize_t nlits = 0;
        for (l = lo; l < hi; l++) {
            if (m.flags[*l >> 1] & CHOSEN)
                nlits++;
            else if ((vals[*l >> 1] != 0) != (*l & 1))
                break;  /* a true frozen literal satisfies the clause */
        }
        if (l < hi)
            continue;
        PyObject *clause = PyTuple_New(nlits);
        for (Py_ssize_t k = 0; clause != NULL && k < nlits; lo++) {
            if (!(m.flags[*lo >> 1] & CHOSEN))
                continue;
            PyObject *code = PyLong_FromLong(*lo);
            if (code == NULL)
                Py_CLEAR(clause);
            else
                PyTuple_SET_ITEM(clause, k++, code);
        }
        if (clause == NULL || PyList_Append(kept, clause) < 0) {
            Py_XDECREF(clause);
            goto done;
        }
        Py_DECREF(clause);
    }
    out = Py_BuildValue("(On)", kept, unsat);
done:
    marks_close(&m);
    PyBuffer_Release(&cls);
    PyBuffer_Release(&occ);
    PyBuffer_Release(&counts);
    PyBuffer_Release(&values);
    PyBuffer_Release(&flags);
    Py_XDECREF(it);
    Py_XDECREF(kept);
    PyMem_Free(visit);
    return out;
}

/* Whether spins[i] is above 0; -1 with an exception set unless it is an
 * integer. */
static int spin_up(PyObject *spins, Py_ssize_t i)
{
    PyObject *key = PyLong_FromSsize_t(i), *spin = NULL, *v = NULL;
    int over = 0;
    long long x = 0;
    if (key != NULL && (spin = PyObject_GetItem(spins, key)) != NULL &&
        (v = PyNumber_Index(spin)) != NULL)
        x = PyLong_AsLongLongAndOverflow(v, &over);
    Py_XDECREF(key);
    Py_XDECREF(spin);
    if (v == NULL)
        return -1;
    Py_DECREF(v);
    return over > 0 || (over == 0 && x > 0);
}

/* The position of rank r in the ascending list of ranks `pool`, as
 * bisect_left finds it; -1 with an exception set. */
static Py_ssize_t pool_find(PyObject *pool, Py_ssize_t r)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(pool);
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        Py_ssize_t v = PyLong_AsSsize_t(PyList_GET_ITEM(pool, mid));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < r)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Moves rank r's unsatisfied degree by `step` and, where it reaches 1 by a
 * rise or 0, inserts r into or removes it from the pool; -1 with an
 * exception set. */
static int degree_step(int *degree, PyObject *pool, Py_ssize_t r, int step)
{
    degree[r] += step;
    if (!(step > 0 && degree[r] == 1) && degree[r] != 0)
        return 0;
    Py_ssize_t at = pool_find(pool, r);
    if (at < 0)
        return -1;
    if (degree[r] == 0)
        return PySequence_DelItem(pool, at);
    PyObject *v = PyLong_FromSsize_t(r);
    int done = v == NULL ? -1 : PyList_Insert(pool, at, v);
    Py_XDECREF(v);
    return done;
}

/* merge(clauses, occurrences, spins, ranks, values, true_count,
 * unsat_degree, pool, flags): the oracle's merge.  The slice's ranks are
 * marked SEEN, and FLIPS where their value changes, with TURNS_TRUE when it
 * becomes True.  The clauses of the flipped ranks are visited in ascending
 * order, each once, by a merge of their ascending occurrence rows, and each
 * one's change in true literals is counted over its flipped literals; the
 * changes are listed, and committed only when the gain is not negative.
 * Only a pool insertion that runs out of memory, or a pool that has lost a
 * rank it must hold, can stop a commit half way. */
static PyObject *merge(PyObject *self, PyObject *args)
{
    PyObject *clause_table, *occ_table, *spins, *rank_seq, *count_obj, *degree_obj, *pool;
    Py_buffer values, flags;
    if (!PyArg_ParseTuple(args, "OOOOw*OOO!w*:merge", &clause_table, &occ_table, &spins,
                          &rank_seq, &values, &count_obj, &degree_obj, &PyList_Type, &pool,
                          &flags))
        return NULL;
    Py_buffer cls = {0}, occ = {0}, counts = {0}, degrees = {0};
    Marks m = {0};
    Ranks flipped = {0}, changes = {0};  /* changes: clause, change: two items each */
    PyObject *ranks = NULL, *out = NULL;
    int64_t *visit = NULL;
    Py_ssize_t r, n = flags.len, nvisit = 0, gain = 0;
    if (state_open(&m, &flags, &values, count_obj, &counts, 1, clause_table, &cls, occ_table,
                   &occ) < 0 ||
        ints_open(degree_obj, &degrees, 1) < 0)
        goto done;
    if (ints_len(&degrees) != n) {
        refuse("the degree array must hold one count per node");
        goto done;
    }
    /* a copy, since reading a spin may run Python code that changes a list */
    if ((ranks = PySequence_Tuple(rank_seq)) == NULL)
        goto done;
    unsigned char *vals = values.buf;
    int *tc = counts.buf, *degree = degrees.buf;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(ranks); i++) {
        int up = -1;
        r = rank_in(PyTuple_GET_ITEM(ranks, i), n, "a rank of the slice is outside the nodes");
        if (r >= 0 && (m.flags[r] & SEEN))
            refuse("the slice names a rank twice");
        else if (r >= 0 && mark(&m, r, SEEN) == 0)
            up = spin_up(spins, i);
        if (up < 0)
            goto done;
        if ((vals[r] != 0) != up) {
            m.flags[r] |= FLIPS | (up ? TURNS_TRUE : 0);
            if (ranks_push(&flipped, r) < 0)
                goto done;
        }
    }
    if ((visit = visit_order(&occ, &flipped, rows(&cls), &nvisit)) == NULL)
        goto done;
    for (Py_ssize_t at = 0; at < nvisit; at++) {
        int ci = (int)visit[at], d = 0;
        if (at > 0 && ci == visit[at - 1])
            continue;
        const int *lo, *hi;
        if (row(&cls, ci, 2 * n, &lo, &hi) < 0)
            goto done;
        for (; lo < hi; lo++)
            if (m.flags[*lo >> 1] & FLIPS)
                d += ((m.flags[*lo >> 1] & TURNS_TRUE) != 0) != (*lo & 1) ? 1 : -1;
        gain += (tc[ci] + d > 0) - (tc[ci] > 0);
        if (d && (ranks_push(&changes, ci) < 0 || ranks_push(&changes, d) < 0))
            goto done;
    }
    if (gain >= 0) {
        for (Py_ssize_t k = 0; k < flipped.tail; k++) {
            r = flipped.items[k];
            vals[r] = (m.flags[r] & TURNS_TRUE) != 0;
        }
        for (Py_ssize_t k = 0; k < changes.tail; k += 2) {
            Py_ssize_t ci = changes.items[k];
            int was = tc[ci], now = was + (int)changes.items[k + 1];
            tc[ci] = now;
            if ((was > 0) == (now > 0))
                continue;
            int step = was == 0 ? -1 : 1;  /* now satisfied / now unsatisfied */
            const int *lo, *hi;
            row(&cls, ci, 2 * n, &lo, &hi);  /* checked above */
            for (const int *l = lo; l < hi; l++) {
                const int *e = lo;
                while (e < l && *e >> 1 != *l >> 1)
                    e++;
                if (e == l && degree_step(degree, pool, *l >> 1, step) < 0)
                    goto done;  /* each distinct rank once */
            }
        }
    }
    out = PyLong_FromSsize_t(gain);
done:
    marks_close(&m);
    PyBuffer_Release(&cls);
    PyBuffer_Release(&occ);
    PyBuffer_Release(&counts);
    PyBuffer_Release(&degrees);
    PyBuffer_Release(&values);
    PyBuffer_Release(&flags);
    Py_XDECREF(ranks);
    PyMem_Free(flipped.items);
    PyMem_Free(changes.items);
    PyMem_Free(visit);
    return out;
}

/* A new array('i') of `count` zeros, as array('i', [0]) * count makes it,
 * its buffer opened writable in `view`; NULL with an exception set. */
static PyObject *zero_ints(Py_ssize_t count, Py_buffer *view)
{
    PyObject *module = PyImport_ImportModule("array"), *type = NULL, *one = NULL, *out = NULL;
    if (module != NULL && (type = PyObject_GetAttrString(module, "array")) != NULL &&
        (one = PyObject_CallFunction(type, "s[i]", "i", 0)) != NULL)
        out = PySequence_Repeat(one, count);
    Py_XDECREF(module);
    Py_XDECREF(type);
    Py_XDECREF(one);
    if (out != NULL && ints_open(out, view, 1) < 0)
        Py_CLEAR(out);
    return out;
}

/* tally(clauses, values): the oracle's tally, a repeat's start.  Each
 * clause's true literals are counted from its literal codes, a repeated
 * literal once per occurrence, and an unsatisfied clause raises the degree
 * of each distinct rank it holds once.  The table's header is checked
 * before the counts are allocated by it, and each row as it is read. */
static PyObject *tally(PyObject *self, PyObject *args)
{
    PyObject *clause_table, *count_obj = NULL, *degree_obj = NULL, *pool = NULL, *out = NULL;
    Py_buffer values, cls = {0}, counts = {0}, degrees = {0};
    if (!PyArg_ParseTuple(args, "Oy*:tally", &clause_table, &values))
        return NULL;
    const unsigned char *vals = values.buf;
    Py_ssize_t n = values.len, nclauses, unsat = 0, npool = 0;
    if (ints_open(clause_table, &cls, 0) < 0)
        goto done;
    for (Py_ssize_t r = 0; r < n; r++)
        if (vals[r] > 1) {
            refuse("a value byte must be 0 or 1");
            goto done;
        }
    const int *t = cls.buf;
    if (cls.len && (t[0] < 1 || t[0] > ints_len(&cls))) {
        outside("a row is outside the index");
        goto done;
    }
    nclauses = rows(&cls);
    if ((count_obj = zero_ints(nclauses, &counts)) == NULL ||
        (degree_obj = zero_ints(n, &degrees)) == NULL)
        goto done;
    int *tc = counts.buf, *degree = degrees.buf;
    for (Py_ssize_t ci = 0; ci < nclauses; ci++) {
        const int *lo, *hi;
        if (row(&cls, ci, 2 * n, &lo, &hi) < 0)
            goto done;
        int c = 0;
        for (const int *l = lo; l < hi; l++)
            c += (vals[*l >> 1] != 0) != (*l & 1);
        tc[ci] = c;
        if (c)
            continue;
        unsat++;
        for (const int *l = lo; l < hi; l++) {
            const int *e = lo;
            while (e < l && *e >> 1 != *l >> 1)
                e++;
            if (e == l && degree[*l >> 1]++ == 0)  /* each distinct rank once */
                npool++;
        }
    }
    if ((pool = PyList_New(npool)) == NULL)
        goto done;
    for (Py_ssize_t r = 0, k = 0; r < n; r++) {
        if (!degree[r])
            continue;
        PyObject *v = PyLong_FromSsize_t(r);
        if (v == NULL)
            goto done;
        PyList_SET_ITEM(pool, k++, v);
    }
    out = Py_BuildValue("(OnOO)", count_obj, unsat, degree_obj, pool);
done:
    PyBuffer_Release(&cls);
    PyBuffer_Release(&counts);
    PyBuffer_Release(&degrees);
    PyBuffer_Release(&values);
    Py_XDECREF(count_obj);
    Py_XDECREF(degree_obj);
    Py_XDECREF(pool);
    return out;
}

/* ------------------------------------------------------------------ */
/* The slice's model build, results equal to _kernels_py's qubo and ising,
 * dict entries made in the oracle's first-insertion order.  qubo takes the
 * freeze's literal codes, numbers the slice's spins by sorting the distinct
 * ranks they hold and returns those ranks, so no variable number reaches
 * the build.  Both are exact, so they round nothing the oracle does not:
 * every QUBO coefficient is a sum of the small integers in GADGETS, which a
 * double holds exactly, and ising divides each coefficient by 2 or 4 and
 * adds the quotients into h and the offset in the oracle's order, so it is
 * bit-identical to the oracle on any model, non-dyadic floats included
 * (nothing is fused under -ffp-contract=off).  The scratch is sized by the
 * clause list: a record per literal, a slot per rank and ancilla, and at
 * most 4 pair terms per clause in a hash table, never by the ranks' values
 * or by (ranks + ancillas)^2. */

/* _kernels_py._GADGETS in its order: row [width][pattern], where bit
 * width - 1 - k of pattern is set when literal k is negative.  A row holds
 * the offset, a linear coefficient per slot (slots 0 .. width - 1 are the
 * literals' variables, slot 3 the width-3 ancilla) and one per pair of
 * PAIRS[width]. */
typedef struct {
    int constant;
    signed char lin[4], quad[4];
} Gadget;

static const Gadget GADGETS[4][8] = {
    [1] = {{1, {-1}, {0}}, {0, {1}, {0}}},
    [2] = {{1, {-1, -1}, {1}}, {0, {0, 1}, {-1}}, {0, {1, 0}, {-1}}, {0, {0, 0}, {1}}},
    [3] = {{1, {1, 1, -1, 0}, {1, -2, -2, 1}},
           {0, {1, 1, 1, 1}, {1, -2, -2, -1}},
           {2, {2, -1, -1, -2}, {-1, -2, 2, 1}},
           {1, {2, -1, 1, -1}, {-1, -2, 2, -1}},
           {2, {-1, 2, -1, -2}, {-1, 2, -2, 1}},
           {1, {-1, 2, 1, -1}, {-1, 2, -2, -1}},
           {4, {-2, -2, -1, -4}, {1, 2, 2, 1}},
           {3, {-2, -2, 1, -3}, {1, 2, 2, -1}}},
};
static const signed char PAIRS[4][4][2] = {[2] = {{0, 1}},
                                           [3] = {{0, 1}, {0, 3}, {1, 3}, {2, 3}}};
static const int NSLOTS[4] = {0, 1, 2, 4}, NPAIRS[4] = {0, 0, 1, 4};

/* The first probe of x in an open-addressing table of mask + 1 entries. */
static size_t probe(uint64_t x, size_t mask)
{
    return (size_t)((x * 0xBF58476D1CE4E5B9ULL) >> 32) & mask;
}

/* The smallest power of two of at least 2 * count and 8: the entries of a
 * table for count keys. */
static size_t table_size(Py_ssize_t count)
{
    size_t size = 8;
    while (size < 2 * (size_t)count)
        size *= 2;
    return size;
}

/* The model being built: a linear term per slot, listed in `order` when
 * first touched, and the pair terms in first-touch order, found by an
 * open-addressing table of pair index + 1 (0 empty). */
typedef struct {
    double *lin;
    unsigned char *seen;
    Py_ssize_t *order, nlin;
    struct Term {
        Py_ssize_t i, j;
        double b;
    } *pairs;
    Py_ssize_t npairs, *table;
    size_t mask;
} Build;

static void add_linear(Build *m, Py_ssize_t i, int c)
{
    if (!m->seen[i]) {
        m->seen[i] = 1;
        m->order[m->nlin++] = i;
        m->lin[i] = 0.0;
    }
    m->lin[i] += c;
}

/* Adds c to the pair term (i, j), i < j. */
static void add_pair(Build *m, Py_ssize_t i, Py_ssize_t j, int c)
{
    uint64_t x = ((uint64_t)i * 0x9E3779B97F4A7C15ULL) ^ (uint64_t)j;
    for (size_t at = probe(x, m->mask);; at = (at + 1) & m->mask) {
        Py_ssize_t k = m->table[at] - 1;
        if (k < 0) {
            k = m->npairs++;
            m->table[at] = k + 1;
            m->pairs[k] = (struct Term){i, j, 0.0};
        } else if (m->pairs[k].i != i || m->pairs[k].j != j) {
            continue;
        }
        m->pairs[k].b += c;
        return;
    }
}

/* Reads the literal codes of `clauses` into codes, *count of them in
 * clause order, and each clause's width; -1 with an exception set. */
static int read_codes(PyObject *clauses, int **codes, Py_ssize_t *widths, Py_ssize_t *count)
{
    Py_ssize_t m = PyTuple_GET_SIZE(clauses), size = 0, widest = 0;
    for (Py_ssize_t c = 0; c < m; c++) {
        PyObject *clause = PySequence_Tuple(PyTuple_GET_ITEM(clauses, c));
        if (clause == NULL)
            return -1;
        Py_ssize_t width = widths[c] = PyTuple_GET_SIZE(clause);
        widest = Py_MAX(widest, width);
        if (*count + width > size) {
            size = Py_MAX(2 * (*count + width), 3 * m + 1);
            int *more = PyMem_Realloc(*codes, (size_t)size * sizeof *more);
            if (more == NULL) {
                Py_DECREF(clause);
                PyErr_NoMemory();
                return -1;
            }
            *codes = more;
        }
        for (Py_ssize_t k = 0; k < width; k++) {
            PyObject *code = PyTuple_GET_ITEM(clause, k);
            int over = 0;
            long v = 0;
            if (!PyLong_Check(code))
                PyErr_Format(PyExc_TypeError, "literal code %R is not an int", code);
            else if ((v = PyLong_AsLongAndOverflow(code, &over)) < 0 || over || v > INT_MAX)
                PyErr_Format(PyExc_ValueError, "literal code %R is negative or beyond a C int",
                             code);
            if (PyErr_Occurred()) {
                Py_DECREF(clause);
                return -1;
            }
            (*codes)[(*count)++] = (int)v;
        }
        Py_DECREF(clause);
    }
    if (widest <= 3)
        return 0;
    PyErr_Format(PyExc_ValueError, "clause width %zd exceeds 3; reduce the formula first", widest);
    return -1;
}

/* Numbers the ranks of the n literal codes as the oracle's sorted `ranks`
 * does: slot[k] becomes the QUBO index of code k's rank and ranks[0 ..
 * return - 1] the distinct ranks, ascending.  Each literal is the key
 * rank << 32 | k, so sorting the keys puts equal ranks together, each
 * literal's position beside its rank.  -1 with MemoryError set; 2**32
 * literals would not fit in memory as Python objects anyway. */
static Py_ssize_t number_ranks(const int *codes, Py_ssize_t n, Py_ssize_t *slot, int *ranks)
{
    int64_t *keys = PyMem_New(int64_t, 2 * (size_t)n + 1);
    Py_ssize_t *bounds = PyMem_New(Py_ssize_t, (size_t)n + 2), nranks = -1;
    if (keys == NULL || bounds == NULL || (uint64_t)n >> 32) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        keys[k] = (int64_t)(codes[k] >> 1) << 32 | k;
        bounds[k] = k;
    }
    bounds[n] = n;
    const int64_t *sorted = merge_runs(keys, keys + n, bounds, n);
    nranks = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        int r = (int)(sorted[k] >> 32);
        if (nranks == 0 || ranks[nranks - 1] != r)
            ranks[nranks++] = r;
        slot[sorted[k] & 0xFFFFFFFF] = nranks - 1;
    }
done:
    PyMem_Free(keys);
    PyMem_Free(bounds);
    return nranks;
}

/* A new dict of the linear terms in first-touch order; NULL on error. */
static PyObject *linear_dict(const Build *m)
{
    PyObject *out = PyDict_New();
    for (Py_ssize_t k = 0; out != NULL && k < m->nlin; k++) {
        Py_ssize_t i = m->order[k];
        PyObject *key = PyLong_FromSsize_t(i), *value = PyFloat_FromDouble(m->lin[i]);
        if (key == NULL || value == NULL || PyDict_SetItem(out, key, value) < 0)
            Py_CLEAR(out);
        Py_XDECREF(key);
        Py_XDECREF(value);
    }
    return out;
}

/* A new dict of the pair terms, keyed (i, j), in first-touch order; NULL on
 * error. */
static PyObject *pair_dict(const Build *m)
{
    PyObject *out = PyDict_New();
    for (Py_ssize_t k = 0; out != NULL && k < m->npairs; k++) {
        PyObject *key = PyTuple_New(2), *value = PyFloat_FromDouble(m->pairs[k].b);
        if (key != NULL) {
            PyTuple_SET_ITEM(key, 0, PyLong_FromSsize_t(m->pairs[k].i));
            PyTuple_SET_ITEM(key, 1, PyLong_FromSsize_t(m->pairs[k].j));
        }
        if (key == NULL || !PyTuple_GET_ITEM(key, 0) || !PyTuple_GET_ITEM(key, 1) ||
            value == NULL || PyDict_SetItem(out, key, value) < 0)
            Py_CLEAR(out);
        Py_XDECREF(key);
        Py_XDECREF(value);
    }
    return out;
}

/* qubo(clauses): the oracle's qubo.  Every literal code is read and
 * checked first, in clause order; then the ranks are numbered, and each
 * clause adds its GADGETS row. */
static PyObject *qubo(PyObject *self, PyObject *arg)
{
    PyObject *clauses = PySequence_Tuple(arg);  /* Python code cannot resize it */
    if (clauses == NULL)
        return NULL;
    Py_ssize_t m = PyTuple_GET_SIZE(clauses), nlits = 0, nranks = 0, nanc = 0, npairs = 0;
    int *codes = NULL, *ranks = NULL;
    Py_ssize_t *widths = PyMem_New(Py_ssize_t, m + 1), *slot = NULL;
    PyObject *linear = NULL, *quadratic = NULL, *rank_list = NULL, *out = NULL;
    Build b = {0};
    if (widths == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_codes(clauses, &codes, widths, &nlits) < 0)
        goto done;
    for (Py_ssize_t c = 0; c < m; c++) {
        nanc += widths[c] == 3;
        npairs += NPAIRS[widths[c]];
    }
    slot = PyMem_New(Py_ssize_t, nlits + 1);
    ranks = PyMem_New(int, nlits + 1);
    if (slot == NULL || ranks == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if ((nranks = number_ranks(codes, nlits, slot, ranks)) < 0)
        goto done;
    Py_ssize_t num_vars = nranks + nanc, next_ancilla = nranks, at = 0;
    long long offset = 0;
    size_t cap = table_size(npairs);
    b.lin = PyMem_New(double, num_vars + 1);
    b.seen = PyMem_Calloc(num_vars + 1, 1);
    b.order = PyMem_New(Py_ssize_t, num_vars + 1);
    b.pairs = PyMem_New(struct Term, npairs + 1);
    b.table = PyMem_Calloc(cap, sizeof *b.table);
    b.mask = cap - 1;
    if (!b.lin || !b.seen || !b.order || !b.pairs || !b.table) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t c = 0; c < m; c++) {
        Py_ssize_t width = widths[c], s[4];
        int pattern = 0;
        if (width == 0) {
            offset += 1;
            continue;
        }
        for (Py_ssize_t k = 0; k < width; k++, at++) {
            pattern = pattern << 1 | (codes[at] & 1);
            s[k] = slot[at];
        }
        if (width == 3)
            s[3] = next_ancilla++;
        const Gadget *g = &GADGETS[width][pattern];
        offset += g->constant;
        for (int k = 0; k < NSLOTS[width]; k++)
            if (g->lin[k])
                add_linear(&b, s[k], g->lin[k]);
        for (int k = 0; k < NPAIRS[width]; k++) {
            Py_ssize_t i = s[PAIRS[width][k][0]], j = s[PAIRS[width][k][1]];
            if (!g->quad[k])
                continue;
            if (i == j)  /* a repeated variable folds in as x*x = x */
                add_linear(&b, i, g->quad[k]);
            else
                add_pair(&b, Py_MIN(i, j), Py_MAX(i, j), g->quad[k]);
        }
    }
    if ((linear = linear_dict(&b)) == NULL || (quadratic = pair_dict(&b)) == NULL ||
        (rank_list = PyList_New(nranks)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < nranks; i++) {
        PyObject *r = PyLong_FromLong(ranks[i]);
        if (r == NULL)
            goto done;
        PyList_SET_ITEM(rank_list, i, r);
    }
    out = Py_BuildValue("(nOOdO)", num_vars, linear, quadratic, (double)offset, rank_list);
done:
    Py_DECREF(clauses);
    Py_XDECREF(linear);
    Py_XDECREF(quadratic);
    Py_XDECREF(rank_list);
    PyMem_Free(codes);
    PyMem_Free(widths);
    PyMem_Free(slot);
    PyMem_Free(ranks);
    PyMem_Free(b.lin);
    PyMem_Free(b.seen);
    PyMem_Free(b.order);
    PyMem_Free(b.pairs);
    PyMem_Free(b.table);
    return out;
}

/* The value of an int or float QUBO coefficient, which runs no Python code;
 * -1.0 with an exception set. */
static double coefficient(PyObject *v)
{
    if (PyFloat_Check(v))
        return PyFloat_AS_DOUBLE(v);
    if (PyLong_Check(v))
        return PyLong_AsDouble(v);
    PyErr_Format(PyExc_TypeError, "a QUBO coefficient must be an int or a float, not %.100s",
                 Py_TYPE(v)->tp_name);
    return -1.0;
}

/* The spin the QUBO index `key` names among n; -1 with an exception set
 * unless it is an int in 0 .. n - 1. */
static Py_ssize_t spin_of(PyObject *key, Py_ssize_t n)
{
    if (!PyLong_Check(key)) {
        PyErr_SetString(PyExc_TypeError, "a QUBO index must be an int");
        return -1;
    }
    Py_ssize_t i = PyLong_AsSsize_t(key);
    if (i == -1 && PyErr_Occurred())
        PyErr_Clear();  /* beyond Py_ssize_t: outside as well */
    return i >= 0 && i < n ? i : outside("a QUBO index is outside the model");
}

/* ising(num_vars, linear, quadratic, offset): the oracle's ising, which
 * raises for an index or a coefficient the oracle would misread.  Reading an
 * int or a float runs no Python code; hashing a pair key into j may, so the
 * key is held meanwhile. */
static PyObject *ising(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *linear, *quadratic, *offset, *key, *value;
    if (!PyArg_ParseTuple(args, "nO!O!O:ising", &n, &PyDict_Type, &linear, &PyDict_Type,
                          &quadratic, &offset))
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "num_vars must be non-negative");
        return NULL;
    }
    /* with no term the oracle returns the offset object as it came */
    int terms = PyDict_GET_SIZE(linear) + PyDict_GET_SIZE(quadratic) > 0;
    double off = terms ? coefficient(offset) : 0.0;
    if (off == -1.0 && PyErr_Occurred())
        return NULL;
    double *h = PyMem_Calloc((size_t)n + 1, sizeof *h);  /* +0.0 from zero bits */
    PyObject *j = PyDict_New(), *hs = NULL, *out = NULL;
    if (h == NULL || j == NULL) {
        if (h == NULL)
            PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t pos = 0;
    while (PyDict_Next(linear, &pos, &key, &value)) {
        Py_ssize_t i = spin_of(key, n);
        double a = i < 0 ? -1.0 : coefficient(value);
        if (a == -1.0 && PyErr_Occurred())
            goto done;
        h[i] += a / 2.0;
        off += a / 2.0;
    }
    pos = 0;
    while (PyDict_Next(quadratic, &pos, &key, &value)) {
        Py_ssize_t i = -1, k = -1;
        if (!PyTuple_CheckExact(key) || PyTuple_GET_SIZE(key) != 2)
            PyErr_SetString(PyExc_TypeError, "a QUBO pair must be a tuple (i, k)");
        else if ((i = spin_of(PyTuple_GET_ITEM(key, 0), n)) >= 0)
            k = spin_of(PyTuple_GET_ITEM(key, 1), n);
        double b = k < 0 ? -1.0 : coefficient(value);
        if (b == -1.0 && PyErr_Occurred())
            goto done;
        double quarter = b / 4.0;
        PyObject *q = PyFloat_FromDouble(quarter);
        Py_INCREF(key);
        int failed = q == NULL || PyDict_SetItem(j, key, q) < 0;
        Py_DECREF(key);
        Py_XDECREF(q);
        if (failed)
            goto done;
        h[i] += quarter;
        h[k] += quarter;
        off += quarter;
    }
    if ((hs = PyList_New(n)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyFloat_FromDouble(h[i]);
        if (v == NULL)
            goto done;
        PyList_SET_ITEM(hs, i, v);
    }
    out = terms ? Py_BuildValue("(nOOd)", n, j, hs, off)
                : Py_BuildValue("(nOOO)", n, j, hs, offset);
done:
    PyMem_Free(h);
    Py_XDECREF(j);
    Py_XDECREF(hs);
    return out;
}

/* ------------------------------------------------------------------ */
/* Chip scaling, results equal to _kernels_py's scale bit for bit.  The
 * rule works per coefficient in doubles: the scale is COEFF_MAX over the
 * largest magnitude, and each scaled value x is rounded half away from zero
 * as floor(x + 0.5) or ceil(x - 0.5) and clamped, as the oracle does on
 * Python floats; the oracle's int results convert to +0.0 where ceil gives
 * -0.0, so a zero is returned as +0.0.  The oracle runs the rule once per
 * distinct value and this once per coefficient, which gives the same
 * floats; the largest relative error is a maximum of non-negative floats,
 * which no order changes.  Every rounded value is an integer in
 * COEFF_MIN .. COEFF_MAX, so each is one shared float object.  The copies
 * of qubo.COEFF_MIN and COEFF_MAX below are checked against them by a
 * test. */

#define COEFF_MIN (-14)
#define COEFF_MAX 14

/* Whether the chip cannot hold v: it holds integers in COEFF_MIN ..
 * COEFF_MAX (qubo.chip_misfit). */
static int misfits(double v) { return !(v >= COEFF_MIN && v <= COEFF_MAX && v == floor(v)); }

/* The value x scaled to the chip: rounded half away from zero, clamped and
 * with a zero as +0.0. */
static double fit(double x)
{
    double r = x >= 0 ? floor(x + 0.5) : ceil(x - 0.5);
    r = r < COEFF_MIN ? COEFF_MIN : r > COEFF_MAX ? COEFF_MAX : r;
    return r == 0.0 ? 0.0 : r;
}

/* scale(j, h, offset): the oracle's scale.  The coefficients are read as
 * ints or floats, j's values first; None when the chip holds them all,
 * else (j, h, offset * scale, max_rel_error), j with j's key objects in
 * j's order. */
static PyObject *scale(PyObject *self, PyObject *args)
{
    PyObject *j, *h, *offset, *key, *value, *fast = NULL, *js = NULL, *hs = NULL, *out = NULL;
    PyObject *fits[COEFF_MAX - COEFF_MIN + 1] = {NULL};
    if (!PyArg_ParseTuple(args, "O!OO:scale", &PyDict_Type, &j, &h, &offset))
        return NULL;
    if ((fast = PySequence_Fast(h, "the fields must be a sequence")) == NULL)
        return NULL;
    Py_ssize_t nj = PyDict_GET_SIZE(j), nh = PySequence_Fast_GET_SIZE(fast), k = 0, pos = 0;
    double *v = PyMem_New(double, (size_t)(nj + nh) + 1), maxabs = 0.0, max_rel = 0.0;
    int misfit = 0;
    if (v == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* reading an int or a float runs no Python code, so j cannot change */
    while (k < nj + nh) {
        if (k < nj)
            PyDict_Next(j, &pos, &key, &value);
        else
            value = PySequence_Fast_GET_ITEM(fast, k - nj);
        if ((v[k] = coefficient(value)) == -1.0 && PyErr_Occurred())
            goto done;
        misfit |= misfits(v[k++]);
    }
    if (!misfit) {
        out = Py_NewRef(Py_None);
        goto done;
    }
    for (k = 0; k < nj + nh; k++) {
        if (!isfinite(v[k])) {
            refuse("a coefficient is not finite");
            goto done;
        }
        maxabs = fabs(v[k]) > maxabs ? fabs(v[k]) : maxabs;
    }
    double s = COEFF_MAX / maxabs, off = coefficient(offset);
    if (isinf(s)) {
        refuse("the coefficients are too small to scale");
        goto done;
    }
    if (off == -1.0 && PyErr_Occurred())
        goto done;
    for (k = 0; k < nj + nh; k++) {
        double x = v[k] * s, f = fit(x);
        if (x != 0.0 && fabs(f - x) / fabs(x) > max_rel)
            max_rel = fabs(f - x) / fabs(x);
        PyObject **slot = &fits[(int)f - COEFF_MIN];
        if (*slot == NULL && (*slot = PyFloat_FromDouble(f)) == NULL)
            goto done;
        v[k] = f;
    }
    if ((js = PyDict_New()) == NULL || (hs = PyList_New(nh)) == NULL)
        goto done;
    /* a collection since the first pass may have run Python code */
    for (k = 0, pos = 0; k < nj && PyDict_Next(j, &pos, &key, &value); k++) {
        /* hashing a key may run Python code, so the key is held meanwhile */
        Py_INCREF(key);
        int failed = PyDict_SetItem(js, key, fits[(int)v[k] - COEFF_MIN]);
        Py_DECREF(key);
        if (failed)
            goto done;
    }
    if (k != nj || PyDict_GET_SIZE(j) != nj) {
        PyErr_SetString(PyExc_RuntimeError, "the couplings changed size during scaling");
        goto done;
    }
    for (Py_ssize_t i = 0; i < nh; i++)
        PyList_SET_ITEM(hs, i, Py_NewRef(fits[(int)v[k++] - COEFF_MIN]));
    out = Py_BuildValue("(OOdd)", js, hs, off * s, max_rel);
done:
    for (k = 0; k < COEFF_MAX - COEFF_MIN + 1; k++)
        Py_XDECREF(fits[k]);
    PyMem_Free(v);
    Py_DECREF(fast);
    Py_XDECREF(js);
    Py_XDECREF(hs);
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
     "The kept clauses of a slice as literal codes, and the visited unsatisfied count."},
    {"merge", merge, METH_VARARGS,
     "Merges a slice's spins into the incumbent unless it loses a clause; returns the gain."},
    {"qubo", qubo, METH_O,
     "The QUBO of clauses of literal codes: (num_vars, linear, quadratic, offset, ranks)."},
    {"ising", ising, METH_VARARGS,
     "The Ising form of a QUBO's fields: (num_spins, j, h, offset)."},
    {"tally", tally, METH_VARARGS,
     "A repeat's start: (true_count, unsat, unsat_degree, pool) of the clauses under values."},
    {"scale", scale, METH_VARARGS,
     "The chip scaling of an Ising model's fields: (j, h, offset, max_rel_error), or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled solver, slice and model-build kernels, results identical to _kernels_py; "
    "jd must be symmetric.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
