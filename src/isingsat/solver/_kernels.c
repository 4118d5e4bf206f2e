/* Compiled kernels: the solver's Metropolis annealing and tabu descent, the
 * decomposition's slice walk, freeze and merge and a repeat's start tally,
 * the slice's model build, qubo and ising, its chip scaling and the
 * solver's couplings layout (walk, freeze, merge and tally, then qubo and
 * ising, then scale, then couplings, at the end, each group with its own
 * comment).  From the walk to the merge a slice stays in ranks and literal
 * codes, so no variable number reaches this module; from the freeze to the
 * merge it stays in flat arrays, the kept clauses a table of literal codes
 * and every model field a number or an array of ranks, index pairs or
 * doubles.  The walk, the freeze and the merge read build_vig's flat
 * int tables, whose rows are numbered by node rank, read or write a repeat's
 * state in its flat per-rank arrays in place, and keep their per-rank marks
 * in the caller's flag array, which they clear before they return, on error
 * too, so no call does work or allocates memory in proportion to the formula;
 * the tally, once per repeat, makes that state from the clause table.  The
 * model build is exact: its coefficients are small integers from the 14-row
 * gadget table, which ising only halves and quarters, so it rounds nothing
 * and gives the oracle's floats bit for bit.  The chip scaling rounds, in
 * doubles, as the oracle rounds Python floats, and gives its floats bit for
 * bit, zero signs included.
 *
 * The solver kernels give results bit-identical to the pure-Python oracle
 * _kernels_py: the same splitmix64 seeding and xorshift64* stream, the same
 * float operation order and tie-breaks, and libm exp/pow.  There are two
 * differences in method, and neither changes a result.  The Metropolis test
 * calls exp only when two cheap bounds cannot decide it (see rejects).  Tabu
 * stops once its search is back in a state it was in since its last
 * improvement, which fixes every later move, and returns what the full budget
 * would (see tabu).  Build with -ffp-contract=off so that no multiply-add is
 * fused.  The fields, and a dense jd, are copied into C buffers and the
 * interpreter lock is released around the sweep and move loops.
 *
 * The couplings arrive as jd in one of two forms, and both give the same
 * per-spin neighbour lists of the nonzero couplings: spin i's links are
 * links[start[i]] .. links[start[i + 1] - 1], in ascending neighbour order,
 * each holding the neighbour q, J_iq and 2*J_iq.  solve passes a couplings
 * object, which couplings (at the end of this file) builds once per call
 * from the model's pairs, and which chain_open reads in place on every read.
 * The oracle's layout, a dense row-major n*n matrix, symmetric with a zero
 * diagonal, is taken too: chain_open then reads all of it on every read and
 * keeps its nonzero entries.  A field is summed over its row's links and a
 * flip of spin i updates only the fields of its links, so a flip costs the
 * spin's degree rather than n.
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
 * returned.  Every zero coupling, +0.0 or -0.0, is dropped.
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

/* A couplings object's neighbour lists, in one block: start (n + 1) lies
 * past the links. */
typedef struct {
    int n;
    const Py_ssize_t *start;
    Link links[];
} Couplings;

#define COUPLINGS "isingsat.solver._kernels.couplings"

typedef struct {
    int n;
    uint64_t state;
    const Py_ssize_t *start;  /* n + 1: spin i's links begin at links + start[i] */
    const Link *links;        /* a couplings object's, or own_links */
    Py_ssize_t *own_start;    /* the lists load_links reads from a dense jd */
    Link *own_links;
    double *h, *fields;       /* n, n */
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

/* The items of `seq`, which must number `count`, as a new reference to a
   list or tuple; NULL with an exception set. */
static PyObject *items_of(PyObject *seq, Py_ssize_t count)
{
    PyObject *fast = PySequence_Fast(seq, "couplings and fields must be sequences");
    if (fast != NULL && PySequence_Fast_GET_SIZE(fast) != count) {
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

/* Reads the dense row-major n*n jd in one pass into the chain's own
   neighbour lists, keeping its nonzero entries; returns -1 with an
   exception set. */
static int load_links(Chain *c, PyObject *jd)
{
    int n = c->n;
    PyObject *fast = items_of(jd, (Py_ssize_t)n * n);
    if (fast == NULL)
        return -1;
    PyObject **items = PySequence_Fast_ITEMS(fast);
    Py_ssize_t used = 0, size = 4 * (Py_ssize_t)n + 1;
    if ((c->own_start = PyMem_New(Py_ssize_t, (size_t)n + 1)) == NULL ||
        (c->own_links = PyMem_New(Link, size)) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int i = 0; i < n; i++) {
        c->own_start[i] = used;
        for (int q = 0; q < n; q++) {
            double v = as_double(items[(Py_ssize_t)i * n + q]);
            if (v == -1.0 && PyErr_Occurred())
                goto fail;
            if (v == 0.0)
                continue;
            if (used == size) {
                size *= 2;
                Link *grown = PyMem_Realloc(c->own_links, (size_t)size * sizeof *grown);
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                c->own_links = grown;
            }
            c->own_links[used++] = (Link){v, 2.0 * v, q};
        }
    }
    c->own_start[n] = used;
    c->start = c->own_start;
    c->links = c->own_links;
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    return -1;
}

/* Allocates the chain's buffers (plus `extra` doubles at fields + n) and
   reads the coefficients: the links of a couplings object in place, or the
   nonzero entries of a dense jd; returns -1 with an exception set. */
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
    c->h = PyMem_New(double, 2 * (size_t)n + extra + 1);
    c->spins = PyMem_New(signed char, 2 * (size_t)n + 1);
    if (c->h == NULL || c->spins == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->fields = c->h + n;
    c->best_spins = c->spins + n;
    if (PyCapsule_IsValid(jd, COUPLINGS)) {
        const Couplings *cp = PyCapsule_GetPointer(jd, COUPLINGS);
        if (cp->n != n) {
            PyErr_Format(PyExc_ValueError, "the couplings hold %d spins, not %d", cp->n, n);
            return -1;
        }
        c->start = cp->start;
        c->links = cp->links;
    } else if (load_links(c, jd) < 0) {
        return -1;
    }
    return load(h, n, c->h);
}

static void chain_close(Chain *c)
{
    PyMem_Free(c->own_start);
    PyMem_Free(c->own_links);
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
 * as one such table of literal codes, and the merge takes a slice's ranks,
 * one per spin.  The state they read and write is GlobalState's flat arrays: a
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

/* Opens `obj`, the argument `name`, which must be an array of typecode
 * `code` or another contiguous buffer of its items: 'i' for C ints, 'd' for
 * doubles.  Writable if asked; -1 with an exception set, a TypeError that
 * names the argument for another type. */
static int array_open(PyObject *obj, Py_buffer *view, char code, int writable,
                      const char *name)
{
    int want = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | (writable ? PyBUF_WRITABLE : 0);
    size_t size = code == 'i' ? sizeof(int) : sizeof(double);
    if (PyObject_CheckBuffer(obj)) {
        if (PyObject_GetBuffer(obj, view, want) < 0)
            return -1;
        if ((size_t)view->itemsize == size && view->format[0] == code && !view->format[1])
            return 0;
        PyBuffer_Release(view);
    }
    PyErr_Format(PyExc_TypeError, "%s must be an array('%c')", name, code);
    return -1;
}

/* The number of items in a buffer opened by array_open. */
static Py_ssize_t nitems(const Py_buffer *view) { return view->len / view->itemsize; }

/* array('i', [0]) and array('d', [0]), which the module's init makes. */
static PyObject *int_zero, *double_zero;

/* A new array of typecode `code` ('i' or 'd') holding `count` zeros, as
 * array(code, [0]) * count makes it, its buffer opened writable in `view`;
 * NULL with an exception set. */
static PyObject *new_array(char code, Py_ssize_t count, Py_buffer *view)
{
    PyObject *out = PySequence_Repeat(code == 'i' ? int_zero : double_zero, count);
    if (out != NULL && array_open(out, view, code, 1, "the new array") < 0)
        Py_CLEAR(out);
    return out;
}

/* The number of rows of an opened table; an empty one has none.  The
 * header is widened first, so a header of INT_MIN does not overflow. */
static Py_ssize_t rows(const Py_buffer *table)
{
    return table->len ? (Py_ssize_t)((const int *)table->buf)[0] - 1 : 0;
}

/* The number of rows of an opened table whose header is checked to lie in
 * the table, before a caller allocates by it; -1 with IndexError set. */
static Py_ssize_t checked_rows(const Py_buffer *table)
{
    const int *t = table->buf;
    if (table->len && (t[0] < 1 || t[0] > nitems(table)))
        return outside("a row is outside the index");
    return rows(table);
}

/* Row i of the table as [*lo, *hi), each item checked to lie in
 * 0 .. bound - 1; -1 with IndexError when i, the row or an item lies
 * outside. */
static int row(const Py_buffer *table, Py_ssize_t i, Py_ssize_t bound, const int **lo,
               const int **hi)
{
    const int *t = table->buf;
    Py_ssize_t len = nitems(table);
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
    if (selected == NULL || array_open(push_table, &pushes, 'i', 0, "pushes") < 0 ||
        array_open(tri_table, &tris, 'i', 0, "triangles") < 0 ||
        marks_open(&m, &flags, rows(&pushes)) < 0)
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
    if (array_open(clause_table, cls, 'i', 0, "clauses") < 0 ||
        array_open(occ_table, occ, 'i', 0, "occurrences") < 0 ||
        array_open(count_obj, counts, 'i', writable, "true_count") < 0 ||
        marks_open(m, flags, rows(occ)) < 0)
        return -1;
    if (values->len != flags->len)
        return refuse("the value array must hold one byte per node");
    if (nitems(counts) != rows(cls))
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
 * rows; values and counts are read from their buffers.  The kept clauses
 * are listed first, so the table of their selected literal codes is
 * allocated once, at its size. */
static PyObject *freeze(PyObject *self, PyObject *args)
{
    PyObject *clause_table, *occ_table, *selected, *count_obj;
    Py_buffer values, flags;
    if (!PyArg_ParseTuple(args, "OOOy*Ow*:freeze", &clause_table, &occ_table, &selected,
                          &values, &count_obj, &flags))
        return NULL;
    Py_buffer cls = {0}, occ = {0}, counts = {0}, table = {0};
    Marks m = {0};
    PyObject *kept = NULL, *out = NULL, *it = NULL, *item;
    int64_t *visit = NULL;
    const int *lo, *hi, *l;
    Py_ssize_t r, n = flags.len, nvisit = 0, unsat = 0, nkept = 0, nkept_lits = 0;
    if (state_open(&m, &flags, &values, count_obj, &counts, 0, clause_table, &cls, occ_table,
                   &occ) < 0 ||
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
    int64_t *keep = visit + nvisit;  /* the merge's scratch half */
    for (Py_ssize_t at = 0; at < nvisit; at++) {
        int ci = (int)visit[at];
        if (at > 0 && ci == visit[at - 1])
            continue;
        unsat += !tc[ci];
        if (row(&cls, ci, 2 * n, &lo, &hi) < 0)
            goto done;
        Py_ssize_t nlits = 0;
        for (l = lo; l < hi; l++) {
            if (m.flags[*l >> 1] & CHOSEN)
                nlits++;
            else if ((vals[*l >> 1] != 0) != (*l & 1))
                break;  /* a true frozen literal satisfies the clause */
        }
        if (l == hi) {
            keep[nkept++] = ci;
            nkept_lits += nlits;
        }
    }
    if ((kept = new_array('i', nkept + 1 + nkept_lits, &table)) == NULL)
        goto done;
    int *t = table.buf, w = (int)nkept + 1;
    t[0] = w;
    for (Py_ssize_t k = 0; k < nkept; k++) {
        row(&cls, keep[k], 2 * n, &lo, &hi);  /* checked above */
        for (l = lo; l < hi; l++)
            if (m.flags[*l >> 1] & CHOSEN)
                t[w++] = *l;
        t[k + 1] = w;
    }
    out = Py_BuildValue("(On)", kept, unsat);
done:
    marks_close(&m);
    PyBuffer_Release(&cls);
    PyBuffer_Release(&occ);
    PyBuffer_Release(&counts);
    PyBuffer_Release(&table);
    PyBuffer_Release(&values);
    PyBuffer_Release(&flags);
    Py_XDECREF(it);
    Py_XDECREF(kept);
    PyMem_Free(visit);
    return out;
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

/* merge(clauses, occurrences, spins, ranks, values, true_count, unsat_degree,
 * pool, flags): the oracle's merge.  The slice's ranks are read from their
 * array('i') buffer and its spins from one tuple of them; each rank is marked
 * SEEN, and FLIPS where its value changes, with TURNS_TRUE when it becomes
 * True.  The clauses of the flipped ranks are visited in ascending order,
 * each once, by a merge of their ascending occurrence rows, and each one's
 * change in true literals is counted over its flipped literals; the changes
 * are listed, and committed only when the gain is not negative.  Only a pool
 * insertion that runs out of memory, or a pool that has lost a rank it must
 * hold, can stop a commit half way. */
static PyObject *merge(PyObject *self, PyObject *args)
{
    PyObject *clause_table, *occ_table, *spin_seq, *rank_obj, *count_obj, *degree_obj, *pool;
    Py_buffer values, flags;
    if (!PyArg_ParseTuple(args, "OOOOw*OOO!w*:merge", &clause_table, &occ_table, &spin_seq,
                          &rank_obj, &values, &count_obj, &degree_obj, &PyList_Type, &pool,
                          &flags))
        return NULL;
    Py_buffer cls = {0}, occ = {0}, counts = {0}, degrees = {0}, rv = {0};
    Marks m = {0};
    Ranks flipped = {0}, changes = {0};  /* changes: clause, change: two items each */
    PyObject *spins = NULL, *out = NULL;
    int64_t *visit = NULL;
    Py_ssize_t r, n = flags.len, nvisit = 0, gain = 0;
    if (state_open(&m, &flags, &values, count_obj, &counts, 1, clause_table, &cls, occ_table,
                   &occ) < 0 ||
        array_open(degree_obj, &degrees, 'i', 1, "unsat_degree") < 0)
        goto done;
    if (nitems(&degrees) != n) {
        refuse("the degree array must hold one count per node");
        goto done;
    }
    /* a copy of the spins, since reading one may run Python code that
     * changes a list; the ranks' buffer is held, so no code resizes it */
    if (array_open(rank_obj, &rv, 'i', 0, "ranks") < 0 ||
        (spins = PySequence_Tuple(spin_seq)) == NULL)
        goto done;
    if (nitems(&rv) > PyTuple_GET_SIZE(spins)) {
        outside("the slice has fewer spins than ranks");
        goto done;
    }
    const int *rank = rv.buf;
    unsigned char *vals = values.buf;
    int *tc = counts.buf, *degree = degrees.buf;
    for (Py_ssize_t i = 0; i < nitems(&rv); i++) {
        if ((r = rank[i]) < 0 || r >= n) {
            outside("a rank of the slice is outside the nodes");
            goto done;
        }
        if (m.flags[r] & SEEN) {
            refuse("the slice names a rank twice");
            goto done;
        }
        /* clipped, so a big spin keeps its sign */
        Py_ssize_t spin = PyNumber_AsSsize_t(PyTuple_GET_ITEM(spins, i), NULL);
        if ((spin == -1 && PyErr_Occurred()) || mark(&m, r, SEEN) < 0)
            goto done;
        if ((vals[r] != 0) != (spin > 0)) {
            m.flags[r] |= FLIPS | (spin > 0 ? TURNS_TRUE : 0);
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
    PyBuffer_Release(&rv);
    Py_XDECREF(spins);
    PyMem_Free(flipped.items);
    PyMem_Free(changes.items);
    PyMem_Free(visit);
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
    if (array_open(clause_table, &cls, 'i', 0, "clauses") < 0)
        goto done;
    for (Py_ssize_t r = 0; r < n; r++)
        if (vals[r] > 1) {
            refuse("a value byte must be 0 or 1");
            goto done;
        }
    if ((nclauses = checked_rows(&cls)) < 0 ||
        (count_obj = new_array('i', nclauses, &counts)) == NULL ||
        (degree_obj = new_array('i', n, &degrees)) == NULL)
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
/* The slice's model build, results equal to _kernels_py's qubo and ising.
 * qubo takes the freeze's table of literal codes, numbers the slice's spins
 * by sorting the distinct ranks they hold and returns those ranks, a linear
 * coefficient per QUBO index and the pair terms as index pairs i < k, flat,
 * in the oracle's first-touch order, beside their coefficients; ising hands
 * that pair array on and returns the couplings and the fields.  Each is an
 * array('i') or array('d') filled through its buffer, so no item is a Python
 * object.  Both are exact, so they round nothing the oracle does not: every
 * QUBO coefficient is a sum of the small integers in GADGETS, which a double
 * holds exactly, and ising divides each by 2 or 4 and adds the quotients into
 * h and the offset in the oracle's order, so it is bit-identical to the
 * oracle on any model, non-dyadic floats included (nothing is fused under
 * -ffp-contract=off).  The scratch is sized by the clause list and the pair
 * terms: a record per literal and at most 4 pair terms per clause in a hash
 * table, never by the ranks' values or by (ranks + ancillas)^2. */

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

/* The pair terms being built, in first-touch order, found by an
 * open-addressing table of term index + 1 (0 empty). */
typedef struct {
    struct Term {
        int i, k;
        double b;
    } *terms;
    Py_ssize_t count, *table;
    size_t mask;
} Pairs;

/* Adds c to the pair term (i, k), i < k. */
static void add_pair(Pairs *p, int i, int k, int c)
{
    uint64_t x = ((uint64_t)i * 0x9E3779B97F4A7C15ULL) ^ (uint64_t)k;
    for (size_t at = probe(x, p->mask);; at = (at + 1) & p->mask) {
        Py_ssize_t t = p->table[at] - 1;
        if (t < 0) {
            t = p->count++;
            p->table[at] = t + 1;
            p->terms[t] = (struct Term){i, k, 0.0};
        } else if (p->terms[t].i != i || p->terms[t].k != k) {
            continue;
        }
        p->terms[t].b += c;
        return;
    }
}

/* Numbers the ranks of the n literal codes in the m rows of the checked
 * clause table as the oracle's sorted `ranks` does: slot[k] becomes the
 * QUBO index of code k's rank, codes counted in clause order, and ranks[0
 * .. return - 1] the distinct ranks, ascending.  Each literal is the key
 * rank << 32 | k, so sorting the keys puts equal ranks together, each
 * literal's position beside its rank.  -1 with MemoryError set, also for
 * 2**30 literals or more, which keeps every QUBO index, ancillas
 * included, in an int. */
static Py_ssize_t number_ranks(const Py_buffer *cls, Py_ssize_t m, Py_ssize_t n, int *slot,
                               int *ranks)
{
    int64_t *keys = PyMem_New(int64_t, 2 * (size_t)n + 1);
    Py_ssize_t *bounds = PyMem_New(Py_ssize_t, (size_t)n + 2), nranks = -1, k = 0;
    const int *lo, *hi;
    if (keys == NULL || bounds == NULL || (uint64_t)n >> 30) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t c = 0; c < m; c++)
        for (row(cls, c, (Py_ssize_t)INT_MAX + 1, &lo, &hi); lo < hi; lo++, k++) {
            keys[k] = (int64_t)(*lo >> 1) << 32 | k;
            bounds[k] = k;
        }
    bounds[n] = n;
    const int64_t *sorted = merge_runs(keys, keys + n, bounds, n);
    nranks = 0;
    for (k = 0; k < n; k++) {
        int r = (int)(sorted[k] >> 32);
        if (nranks == 0 || ranks[nranks - 1] != r)
            ranks[nranks++] = r;
        slot[sorted[k] & 0xFFFFFFFF] = (int)nranks - 1;
    }
done:
    PyMem_Free(keys);
    PyMem_Free(bounds);
    return nranks;
}

/* qubo(clauses): the oracle's qubo.  Every row of the clause table is read
 * and checked first, in clause order; then the ranks are numbered, and
 * each clause adds its GADGETS row to the linear array and the pair
 * terms. */
static PyObject *qubo(PyObject *self, PyObject *arg)
{
    Py_buffer cls = {0}, lin = {0}, pv = {0}, qv = {0}, rv = {0};
    Py_ssize_t m = 0, nlits = 0, widest = 0, nranks, nanc = 0;
    int *slot = NULL, *ranks = NULL;
    PyObject *linear = NULL, *pairs = NULL, *quadratic = NULL, *rank_array = NULL, *out = NULL;
    Pairs b = {0};
    const int *lo, *hi;
    if (array_open(arg, &cls, 'i', 0, "clauses") < 0 || (m = checked_rows(&cls)) < 0)
        goto done;
    for (Py_ssize_t c = 0; c < m; c++) {
        if (row(&cls, c, (Py_ssize_t)INT_MAX + 1, &lo, &hi) < 0)
            goto done;
        nlits += hi - lo;
        nanc += hi - lo == 3;
        widest = Py_MAX(widest, hi - lo);
    }
    if (widest > 3) {
        PyErr_Format(PyExc_ValueError, "clause width %zd exceeds 3; reduce the formula first",
                     widest);
        goto done;
    }
    slot = PyMem_New(int, nlits + 1);
    ranks = PyMem_New(int, nlits + 1);
    if (!slot || !ranks) {
        PyErr_NoMemory();
        goto done;
    }
    if ((nranks = number_ranks(&cls, m, nlits, slot, ranks)) < 0)
        goto done;
    int num_vars = (int)(nranks + nanc), next_ancilla = (int)nranks, at = 0;
    long long offset = 0;
    size_t cap = table_size(4 * m);  /* at most 4 pair terms a clause */
    b.terms = PyMem_New(struct Term, 4 * m + 1);
    b.table = PyMem_Calloc(cap, sizeof *b.table);
    b.mask = cap - 1;
    if (!b.terms || !b.table) {
        PyErr_NoMemory();
        goto done;
    }
    if ((linear = new_array('d', num_vars, &lin)) == NULL)
        goto done;
    double *l = lin.buf;  /* +0.0, adding integers: never -0.0 */
    for (Py_ssize_t c = 0; c < m; c++) {
        row(&cls, c, (Py_ssize_t)INT_MAX + 1, &lo, &hi);  /* checked above */
        int width = (int)(hi - lo), s[4], pattern = 0;
        if (width == 0) {
            offset += 1;
            continue;
        }
        for (int k = 0; k < width; k++, at++) {
            pattern = pattern << 1 | (lo[k] & 1);
            s[k] = slot[at];
        }
        if (width == 3)
            s[3] = next_ancilla++;
        const Gadget *g = &GADGETS[width][pattern];
        offset += g->constant;
        for (int k = 0; k < NSLOTS[width]; k++)
            l[s[k]] += g->lin[k];
        for (int k = 0; k < NPAIRS[width]; k++) {
            int i = s[PAIRS[width][k][0]], j = s[PAIRS[width][k][1]];
            if (!g->quad[k])
                continue;
            if (i == j)  /* a repeated variable folds in as x*x = x */
                l[i] += g->quad[k];
            else
                add_pair(&b, Py_MIN(i, j), Py_MAX(i, j), g->quad[k]);
        }
    }
    if ((pairs = new_array('i', 2 * b.count, &pv)) == NULL ||
        (quadratic = new_array('d', b.count, &qv)) == NULL ||
        (rank_array = new_array('i', nranks, &rv)) == NULL)
        goto done;
    int *p = pv.buf;
    double *q = qv.buf;
    for (Py_ssize_t k = 0; k < b.count; k++) {
        p[2 * k] = b.terms[k].i;
        p[2 * k + 1] = b.terms[k].k;
        q[k] = b.terms[k].b;
    }
    memcpy(rv.buf, ranks, (size_t)nranks * sizeof *ranks);
    out = Py_BuildValue("(iOOOdO)", num_vars, linear, pairs, quadratic, (double)offset,
                        rank_array);
done:
    PyBuffer_Release(&cls);
    PyBuffer_Release(&lin);
    PyBuffer_Release(&pv);
    PyBuffer_Release(&qv);
    PyBuffer_Release(&rv);
    Py_XDECREF(linear);
    Py_XDECREF(pairs);
    Py_XDECREF(quadratic);
    Py_XDECREF(rank_array);
    PyMem_Free(slot);
    PyMem_Free(ranks);
    PyMem_Free(b.terms);
    PyMem_Free(b.table);
    return out;
}

/* ising(num_vars, linear, pairs, quadratic, offset): the oracle's ising.
 * The fields start at the halves of linear, which the offset takes in
 * index order; then each pair's quarter goes to j, to both of its fields
 * and to the offset, in pair order, in new arrays('d').  The pair array is
 * returned as given, and the arrays are checked in the oracle's order. */
static PyObject *ising(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *lin_obj, *pairs, *quad_obj, *j = NULL, *hs = NULL, *out = NULL;
    Py_buffer lin = {0}, pv = {0}, qv = {0}, jv = {0}, hv = {0};
    double off;
    if (!PyArg_ParseTuple(args, "nOOOd:ising", &n, &lin_obj, &pairs, &quad_obj, &off))
        return NULL;
    if (n < 0) {
        refuse("num_vars must be non-negative");
        goto done;
    }
    if (array_open(lin_obj, &lin, 'd', 0, "linear") < 0 ||
        array_open(pairs, &pv, 'i', 0, "pairs") < 0 ||
        array_open(quad_obj, &qv, 'd', 0, "quadratic") < 0)
        goto done;
    Py_ssize_t npairs = nitems(&qv);
    if (nitems(&lin) != n) {
        refuse("linear must hold one coefficient per QUBO index");
        goto done;
    }
    if (nitems(&pv) != 2 * npairs) {
        refuse("pairs must hold two QUBO indices per quadratic coefficient");
        goto done;
    }
    const int *p = pv.buf;
    for (Py_ssize_t k = 0; k < 2 * npairs; k++)
        if (p[k] < 0 || p[k] >= n) {
            outside("a pair index is outside the model");
            goto done;
        }
    if ((j = new_array('d', npairs, &jv)) == NULL || (hs = new_array('d', n, &hv)) == NULL)
        goto done;
    const double *a = lin.buf, *b = qv.buf;
    double *quarter = jv.buf, *h = hv.buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        h[i] = a[i] / 2.0;
        off += h[i];
    }
    for (Py_ssize_t k = 0; k < npairs; k++) {
        quarter[k] = b[k] / 4.0;
        h[p[2 * k]] += quarter[k];
        h[p[2 * k + 1]] += quarter[k];
        off += quarter[k];
    }
    out = Py_BuildValue("(nOOOd)", n, pairs, j, hs, off);
done:
    PyBuffer_Release(&lin);
    PyBuffer_Release(&pv);
    PyBuffer_Release(&qv);
    PyBuffer_Release(&jv);
    PyBuffer_Release(&hv);
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
 * which no order changes.  The copies of qubo.COEFF_MIN and COEFF_MAX
 * below are checked against them by a test. */

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

/* scale(j, h, offset): the oracle's scale.  The couplings and the fields
 * are read from their array('d') buffers; None when the chip holds them
 * all, else (j, h, offset * scale, max_rel_error), j and h new arrays. */
static PyObject *scale(PyObject *self, PyObject *args)
{
    PyObject *j_obj, *h_obj, *js = NULL, *hs = NULL, *out = NULL;
    Py_buffer jv = {0}, hv = {0}, jout = {0}, hout = {0};
    double offset, *v = NULL, maxabs = 0.0, max_rel = 0.0;
    if (!PyArg_ParseTuple(args, "OOd:scale", &j_obj, &h_obj, &offset))
        return NULL;
    if (array_open(j_obj, &jv, 'd', 0, "j") < 0 || array_open(h_obj, &hv, 'd', 0, "h") < 0)
        goto done;
    Py_ssize_t nj = nitems(&jv), nh = nitems(&hv), k;
    int misfit = 0;
    if ((v = PyMem_New(double, (size_t)(nj + nh) + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(v, jv.buf, (size_t)nj * sizeof *v);
    memcpy(v + nj, hv.buf, (size_t)nh * sizeof *v);
    for (k = 0; k < nj + nh; k++)
        misfit |= misfits(v[k]);
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
    double s = COEFF_MAX / maxabs;
    if (isinf(s)) {
        refuse("the coefficients are too small to scale");
        goto done;
    }
    for (k = 0; k < nj + nh; k++) {
        double x = v[k] * s, f = fit(x);
        if (x != 0.0 && fabs(f - x) / fabs(x) > max_rel)
            max_rel = fabs(f - x) / fabs(x);
        v[k] = f;
    }
    if ((js = new_array('d', nj, &jout)) == NULL || (hs = new_array('d', nh, &hout)) == NULL)
        goto done;
    memcpy(jout.buf, v, (size_t)nj * sizeof *v);
    memcpy(hout.buf, v + nj, (size_t)nh * sizeof *v);
    out = Py_BuildValue("(OOdd)", js, hs, offset * s, max_rel);
done:
    PyBuffer_Release(&jv);
    PyBuffer_Release(&hv);
    PyBuffer_Release(&jout);
    PyBuffer_Release(&hout);
    PyMem_Free(v);
    Py_XDECREF(js);
    Py_XDECREF(hs);
    return out;
}

/* ------------------------------------------------------------------ */
/* The couplings object, which solve builds once per call for all its reads:
 * the neighbour lists that chain_open would read from the dense jd of the
 * same model, link for link.  A pair p couples pairs[2p] and pairs[2p + 1]
 * by j[p], and is listed in the rows of both its spins.  Two counting
 * sorts lay the rows out in O(n + pairs): the entries by neighbour, then
 * stably by spin, so each row holds its neighbours in ascending order, the
 * order in which load_links scans a row of jd, and every field is summed in
 * the oracle's order.  A repeated pair then sits next to itself in its
 * rows.  Zero couplings of either sign are dropped last, as load_links
 * drops them. */

static void couplings_free(PyObject *capsule)
{
    PyMem_Free(PyCapsule_GetPointer(capsule, COUPLINGS));
}

/* couplings(n, pairs, j): the oracle's couplings, as an opaque object that
 * anneal and tabu read in place of jd.  Refused, in the oracle's order: a
 * negative n, pairs without two spin indices per coupling, an index outside
 * the model, a spin paired with itself, a pair listed twice (in either
 * order). */
static PyObject *couplings(PyObject *self, PyObject *args)
{
    int n;
    PyObject *pairs_obj, *j_obj, *out = NULL;
    Py_buffer pv = {0}, jv = {0};
    Py_ssize_t *order = NULL;
    Couplings *cp = NULL;
    if (!PyArg_ParseTuple(args, "iOO:couplings", &n, &pairs_obj, &j_obj))
        return NULL;
    if (n < 0) {
        refuse("n must be non-negative");
        goto done;
    }
    if (array_open(pairs_obj, &pv, 'i', 0, "pairs") < 0 ||
        array_open(j_obj, &jv, 'd', 0, "j") < 0)
        goto done;
    /* entry e is pair e / 2 seen from spin p[e], its neighbour p[e ^ 1] */
    Py_ssize_t entries = nitems(&pv), e, k;
    if (entries != 2 * nitems(&jv)) {
        refuse("pairs must hold two spin indices per coupling");
        goto done;
    }
    const int *p = pv.buf;
    const double *j = jv.buf;
    int self_paired = 0;
    for (e = 0; e < entries; e++) {
        if (p[e] < 0 || p[e] >= n) {
            outside("a pair index is outside the model");
            goto done;
        }
        self_paired |= p[e] == p[e ^ 1];
    }
    if (self_paired) {
        refuse("a spin is paired with itself");
        goto done;
    }
    if (entries > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Link) - n - 2 ||
        (cp = PyMem_Malloc(sizeof *cp + (size_t)entries * sizeof(Link) +
                           ((size_t)n + 1) * sizeof(Py_ssize_t))) == NULL ||
        (order = PyMem_New(Py_ssize_t, (size_t)entries + n + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t *start = (Py_ssize_t *)(cp->links + entries), *at = order + entries;
    memset(at, 0, ((size_t)n + 1) * sizeof *at);  /* by neighbour */
    memset(start, 0, ((size_t)n + 1) * sizeof *start);  /* by spin */
    for (e = 0; e < entries; e++) {
        at[p[e ^ 1] + 1]++;
        start[p[e] + 1]++;
    }
    for (int i = 0; i < n; i++) {
        at[i + 1] += at[i];
        start[i + 1] += start[i];
    }
    for (e = 0; e < entries; e++)
        order[at[p[e ^ 1]]++] = e;
    memcpy(at, start, ((size_t)n + 1) * sizeof *at);
    for (k = 0; k < entries; k++) {
        e = order[k];
        cp->links[at[p[e]]++] = (Link){j[e >> 1], 2.0 * j[e >> 1], p[e ^ 1]};
    }
    Py_ssize_t used = 0;
    for (int i = 0; i < n; i++) {
        Py_ssize_t lo = start[i], hi = start[i + 1];
        start[i] = used;
        for (k = lo; k < hi; k++) {
            const Link l = cp->links[k];
            if (k > lo && l.q == cp->links[k - 1].q) {
                refuse("a pair is repeated");
                goto done;
            }
            if (l.j != 0.0)
                cp->links[used++] = l;
        }
    }
    start[n] = used;
    cp->n = n;
    cp->start = start;
    if ((out = PyCapsule_New(cp, COUPLINGS, couplings_free)) != NULL)
        cp = NULL;  /* the capsule frees it */
done:
    PyBuffer_Release(&pv);
    PyBuffer_Release(&jv);
    PyMem_Free(order);
    PyMem_Free(cp);
    return out;
}

static PyMethodDef methods[] = {
    {"mix_seed", mix_seed, METH_VARARGS,
     "splitmix64 of (seed, stream), never zero (xorshift state must be)."},
    {"anneal", (PyCFunction)(void (*)(void))anneal, METH_VARARGS | METH_KEYWORDS,
     "Geometric-cooling Metropolis; returns (best_spins, best_energy, trace)."},
    {"tabu", (PyCFunction)(void (*)(void))tabu, METH_VARARGS | METH_KEYWORDS,
     "Best-admissible single-flip tabu search; returns (best_spins, best_energy, moves)."},
    {"couplings", couplings, METH_VARARGS,
     "The neighbour lists of n spins' pairs and couplings, which anneal and tabu take as jd."},
    {"walk", walk, METH_VARARGS,
     "The spin-budgeted walk from start; returns the selected set."},
    {"freeze", freeze, METH_VARARGS,
     "The kept clauses of a slice as a table of literal codes, and the visited unsatisfied count."},
    {"merge", merge, METH_VARARGS,
     "Merges a slice's spins into the incumbent unless it loses a clause; returns the gain."},
    {"qubo", qubo, METH_O,
     "The QUBO of a table of literal codes: (num_vars, linear, pairs, quadratic, offset, ranks)."},
    {"ising", ising, METH_VARARGS,
     "The Ising form of a QUBO's fields: (num_spins, pairs, j, h, offset)."},
    {"tally", tally, METH_VARARGS,
     "A repeat's start: (true_count, unsat, unsat_degree, pool) of the clauses under values."},
    {"scale", scale, METH_VARARGS,
     "The chip scaling of an Ising model's fields: (j, h, offset, max_rel_error), or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled solver, slice and model-build kernels, results identical to _kernels_py; "
    "anneal and tabu take the couplings as a couplings object or as a dense jd, "
    "which must be symmetric.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    if (int_zero == NULL) {
        PyObject *arrays = PyImport_ImportModule("array");
        if (arrays == NULL)
            return NULL;
        int_zero = PyObject_CallMethod(arrays, "array", "s[i]", "i", 0);
        double_zero = int_zero ? PyObject_CallMethod(arrays, "array", "s[i]", "d", 0) : NULL;
        Py_DECREF(arrays);
        if (double_zero == NULL) {
            Py_CLEAR(int_zero);
            return NULL;
        }
    }
    return PyModule_Create(&module);
}
