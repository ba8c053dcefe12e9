/* Compiled kernels: the C twin of ``_kernels_py``.
 *
 * Every function performs the same float operations in the same order as
 * its pure-Python twin and returns the same types (the iterate and rung
 * lists are lists), so the two backends agree bit for bit.  table_values
 * returns its 2^level rows as one bytes object of native binary64, not a
 * tuple: a table of 65,536 rows is then one allocation instead of 65,536
 * float objects, and LogTable.values reads it as a read-only float
 * sequence.  setup.py builds this file with -ffp-contract=off, which
 * forbids fusing a*b+c into one rounding.
 *
 * Arithmetic-only: no math header and no libm call; an absolute value is a
 * compare.  Arguments are positional only.  Where the Python twin raises
 * (a zero divisor, int() of inf or nan, a missing rung) this file raises the
 * same exception type.  Past the reach of C integers it raises instead of
 * computing: OverflowError for more than 63 rungs or levels and for integers
 * outside a long long, and ValueError for int_pow with m < 0, where the
 * twin never returns.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------- helpers */

static int
nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

/* A float argument or sequence item as a C double; -1 on error. */
static inline int
as_double(PyObject *o, double *v)
{
    if (PyFloat_CheckExact(o)) {
        *v = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    *v = PyFloat_AsDouble(o);
    return (*v == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
as_long_long(PyObject *o, long long *v)
{
    *v = PyLong_AsLongLong(o);
    return (*v == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
zero_division(void)
{
    PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    return -1;
}

/* Item j of a rung tuple (from PySequence_Tuple) as a double. */
static inline int
rung_at(PyObject *rungs, Py_ssize_t j, double *v)
{
    if (j >= PyTuple_GET_SIZE(rungs)) {
        PyErr_SetString(PyExc_IndexError, "rung index out of range");
        return -1;
    }
    return as_double(PyTuple_GET_ITEM(rungs, j), v);
}

/* Steal the given references into a new tuple; NULL if any is NULL. */
static PyObject *
steal_tuple(Py_ssize_t n, PyObject *items[])
{
    PyObject *t = NULL;
    for (Py_ssize_t i = 0; i < n; i++)
        if (items[i] == NULL)
            goto done;
    t = PyTuple_New(n);
    if (t == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++)
        PyTuple_SET_ITEM(t, i, items[i]);
    return t;
done:
    for (Py_ssize_t i = 0; i < n; i++)
        Py_XDECREF(items[i]);
    return NULL;
}

/* ten_up[k] is the least double >= 10^k, or 0 until it is first needed.
 * x >= 10^k exactly when x >= ten_up[k], x being a double.  Each entry is
 * read off the exact integer 10^k: rounded to the nearest double, then
 * moved up one ulp (the next bit pattern) if that fell below 10^k. */
static double ten_up[309];

static int
ten_up_at(int k, double *v)
{
    if (ten_up[k] == 0.0) {
        PyObject *ten = PyLong_FromLong(10), *n = PyLong_FromLong(k);
        PyObject *p = (ten && n) ? PyNumber_Power(ten, n, Py_None) : NULL;
        Py_XDECREF(ten);
        Py_XDECREF(n);
        if (p == NULL)
            return -1;
        double d = PyLong_AsDouble(p);
        PyObject *f = PyFloat_FromDouble(d);
        int below = f ? PyObject_RichCompareBool(f, p, Py_LT) : -1;
        Py_XDECREF(f);
        Py_DECREF(p);
        if (below < 0)
            return -1;
        if (below) {
            uint64_t bits;
            memcpy(&bits, &d, sizeof bits);
            bits++;
            memcpy(&d, &bits, sizeof d);
        }
        ten_up[k] = d;
    }
    *v = ten_up[k];
    return 0;
}

/* Decimal digits of int(x) for x >= 1, as len(str(int(x))).  With
 * 2^e <= x < 2^(e+1), 10^q <= 2^e for q = (e * 78913) >> 18 (78913 / 2^18
 * is just below the decimal digits per bit, and the shift gives the exact
 * floor for e below 1650), and 2^(e+1) <= 10^(q+2); so x has q + 1 or
 * q + 2 digits and one comparison with 10^(q+1) decides.  Infinity and nan
 * raise as int(x) does. */
static int
digit_count(double x, int *d)
{
    if (!(x <= DBL_MAX)) {
        Py_XDECREF(PyLong_FromDouble(x));
        return -1;
    }
    uint64_t bits;
    double top;
    memcpy(&bits, &x, sizeof bits);
    int k = ((((int)(bits >> 52) & 0x7ff) - 1023) * 78913 >> 18) + 1;
    if (ten_up_at(k, &top) < 0)
        return -1;
    *d = x >= top ? k + 1 : k;
    return 0;
}

static int
guess_for(double x, double *g)
{
    int d;
    *g = 1.0;
    if (x < 1.0) {
        for (; 0.0 < x && x < 0.01; x *= 100.0)
            *g /= 10.0;
        return 0;
    }
    if (digit_count(x, &d) < 0)
        return -1;
    for (int i = 0; i < d / 2; i++)
        *g *= 10.0;
    return 0;
}

/* Divide-and-average from xk.  Appends each (x_k, y_k) to ``pairs`` unless
 * it is NULL.  Returns 1 when converged, 0 when the steps ran out, -1 on
 * error; *root gets the last iterate. */
static int
heron(double x, double xk, double rel_tol, long long max_iterations,
      PyObject *pairs, double *root)
{
    for (long long i = 0; i < max_iterations; i++) {
        if (xk == 0.0)
            return zero_division();
        double yk = x / xk;
        if (pairs != NULL) {
            PyObject *items[2] = {PyFloat_FromDouble(xk), PyFloat_FromDouble(yk)};
            PyObject *pair = steal_tuple(2, items);
            if (pair == NULL)
                return -1;
            int rc = PyList_Append(pairs, pair);
            Py_DECREF(pair);
            if (rc < 0)
                return -1;
        }
        double xn = (xk + yk) / 2.0;
        double gap = xn - xk;
        if (gap < 0.0)
            gap = -gap;
        if (xn == xk || gap <= rel_tol * xn) {
            *root = xn;
            return 1;
        }
        xk = xn;
    }
    *root = xk;
    return 0;
}

/* ------------------------------------------------------------- kernels */

static PyObject *
default_guess(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double x, g;
    if (!nargs_ok("default_guess", nargs, 1) || as_double(args[0], &x) < 0
            || guess_for(x, &g) < 0)
        return NULL;
    return PyFloat_FromDouble(g);
}

static PyObject *
heron_pairs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double x, guess, rel_tol, root;
    long long max_iterations;
    if (!nargs_ok("heron_pairs", nargs, 4) || as_double(args[0], &x) < 0
            || as_double(args[1], &guess) < 0 || as_double(args[2], &rel_tol) < 0
            || as_long_long(args[3], &max_iterations) < 0)
        return NULL;
    PyObject *pairs = PyList_New(0);
    if (pairs == NULL)
        return NULL;
    int ok = heron(x, guess, rel_tol, max_iterations, pairs, &root);
    if (ok < 0) {
        Py_DECREF(pairs);
        return NULL;
    }
    PyObject *items[3] = {pairs, PyFloat_FromDouble(root), PyBool_FromLong(ok)};
    return steal_tuple(3, items);
}

static PyObject *
ladder_rungs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double prev, rel_tol, g, r;
    long long depth, max_iterations;
    int ok = 1;
    if (!nargs_ok("ladder_rungs", nargs, 4) || as_double(args[0], &prev) < 0
            || as_long_long(args[1], &depth) < 0 || as_double(args[2], &rel_tol) < 0
            || as_long_long(args[3], &max_iterations) < 0)
        return NULL;
    PyObject *rungs = PyList_New(0);
    if (rungs == NULL || PyList_Append(rungs, args[0]) < 0)
        goto fail;
    for (long long j = 0; j < depth; j++) {
        if (guess_for(prev, &g) < 0)
            goto fail;
        ok = heron(prev, g, rel_tol, max_iterations, NULL, &r);
        if (ok < 0)
            goto fail;
        if (!ok)
            break;
        PyObject *rung = PyFloat_FromDouble(r);
        if (rung == NULL)
            goto fail;
        int rc = PyList_Append(rungs, rung);
        Py_DECREF(rung);
        if (rc < 0)
            goto fail;
        prev = r;
    }
    PyObject *items[2] = {rungs, PyBool_FromLong(ok)};
    return steal_tuple(2, items);
fail:
    Py_XDECREF(rungs);
    return NULL;
}

/* Double-double arithmetic for the characteristic search of log_split,
 * step for step the helpers of the same names in the Python twin.  A value
 * is an unevaluated sum hi + lo with |lo| at most half an ulp of hi. */

#define SPLITTER 134217729.0            /* 2^27 + 1 (Veltkamp) */
#define DD_BIG 0x1p995                  /* scale above this ... */
#define DD_DOWN 0x1p-64                 /* ... by this ... */
#define DD_UP 0x1p64                    /* ... and back by this */

/* *p = a * b rounded and *e = a * b - *p exactly (Dekker), for positive a
 * and b with b at most 2^995 and a finite product above about 2^-900.  A
 * first factor or product above 2^995 could overflow in the split: the
 * first factor is scaled by 2^-64 and the error term back by 2^64. */
static inline void
two_prod(double a, double b, double *p, double *e)
{
    double s, scale = 1.0, t, ah, al, bh, bl;
    *p = a * b;
    s = *p;
    if (a > DD_BIG || *p > DD_BIG) {
        a *= DD_DOWN;
        s = a * b;
        scale = DD_UP;
    }
    t = a * SPLITTER;
    ah = t - (t - a);
    al = a - ah;
    t = b * SPLITTER;
    bh = t - (t - b);
    bl = b - bh;
    *e = (((ah * bh - s) + ah * bl) + al * bh) + al * bl;
    *e = *e * scale;
}

/* (h + l) * (ph + pl) */
static inline void
dd_mul(double h, double l, double ph, double pl, double *th, double *tl)
{
    double p, e;
    two_prod(ph, h, &p, &e);
    e += h * pl + l * ph;
    *th = p + e;
    *tl = e - (*th - p);
}

/* (h + l) / (ph + pl) for h >= ph: q = h / ph corrected by the exact
 * remainder h - q * ph plus the low parts, over ph.  A dividend above
 * 2^995 is scaled by 2^-64 and its quotient back by 2^64. */
static inline void
dd_div(double *h, double *l, double ph, double pl)
{
    double scale = 1.0, q, p, e, d, s;
    if (*h > DD_BIG) {
        *h *= DD_DOWN;
        *l *= DD_DOWN;
        scale = DD_UP;
    }
    q = *h / ph;
    two_prod(ph, q, &p, &e);
    d = ((((*h - p) - e) + *l) - q * pl) / ph;
    s = q + d;
    *h = s * scale;
    *l = (d - (s - q)) * scale;
}

/* The characteristic in O(log |c|) steps on double-double powers
 * base^(2^i), then at most one plain step and the greedy walk; see the
 * Python twin for the full account.  Positive finite y and finite base > 1
 * only (ValueError otherwise); base^(2^62) overflows even for base
 * 1 + 2^-52, so 63 powers always suffice. */
static PyObject *
log_split(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double y, base, rung, h, l, r;
    double ph[63], pl[63];
    long long c = 0;
    long long k = 0;
    int n, i;
    if (!nargs_ok("log_split", nargs, 3) || as_double(args[0], &y) < 0
            || as_double(args[1], &base) < 0)
        return NULL;
    if (!(0.0 < y && y <= DBL_MAX && 1.0 < base && base <= DBL_MAX)) {
        PyErr_SetString(PyExc_ValueError, "log_split needs a positive finite "
                                          "y and a finite base > 1");
        return NULL;
    }
    PyObject *seq = PySequence_Tuple(args[2]);
    if (seq == NULL)
        return NULL;
    Py_ssize_t depth = PyTuple_GET_SIZE(seq) - 1;
    if (depth > 63) {
        PyErr_SetString(PyExc_OverflowError, "more than 63 rungs below the base");
        goto fail;
    }
    h = y;
    l = 0.0;
    if (y >= base) {
        ph[0] = base;
        pl[0] = 0.0;
        for (n = 1; n < 63 && ph[n - 1] * ph[n - 1] <= y; n++)
            dd_mul(ph[n - 1], pl[n - 1], ph[n - 1], pl[n - 1], &ph[n], &pl[n]);
        i = n - 1;
        while (h > ph[i] || (h == ph[i] && l >= pl[i])) {
            dd_div(&h, &l, ph[i], pl[i]);
            c += 1LL << i;
        }
        for (i = n - 2; i >= 0; i--) {
            if (h > ph[i] || (h == ph[i] && l >= pl[i])) {
                dd_div(&h, &l, ph[i], pl[i]);
                c += 1LL << i;
            }
        }
    }
    else if (y < 1.0) {
        double th, tl;
        ph[0] = base;
        pl[0] = 0.0;
        for (n = 1; n < 63 && y * (ph[n - 1] * ph[n - 1]) < 1.0; n++)
            dd_mul(ph[n - 1], pl[n - 1], ph[n - 1], pl[n - 1], &ph[n], &pl[n]);
        i = n - 1;
        for (;;) {
            dd_mul(h, l, ph[i], pl[i], &th, &tl);
            if (!(th < base || (th == base && tl < 0.0)))
                break;
            h = th;
            l = tl;
            c -= 1LL << i;
        }
        for (i = n - 2; i >= 0; i--) {
            dd_mul(h, l, ph[i], pl[i], &th, &tl);
            if (th < base || (th == base && tl < 0.0)) {
                h = th;
                l = tl;
                c -= 1LL << i;
            }
        }
    }
    r = h;
    while (r >= base) {
        r /= base;
        c++;
    }
    while (r < 1.0) {
        r *= base;
        c--;
    }
    for (Py_ssize_t j = 1; j <= depth; j++) {
        k <<= 1;
        if (rung_at(seq, j, &rung) < 0)
            goto fail;
        if (r >= rung) {
            if (rung == 0.0) {
                zero_division();
                goto fail;
            }
            r /= rung;
            k |= 1;
        }
    }
    Py_DECREF(seq);
    PyObject *items[3] = {PyLong_FromLongLong(c), PyLong_FromLongLong(k),
                          PyFloat_FromDouble(r)};
    return steal_tuple(3, items);
fail:
    Py_DECREF(seq);
    return NULL;
}

static PyObject *
mantissa_product(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long numerator, level;
    double v = 1.0, rung;
    if (!nargs_ok("mantissa_product", nargs, 3)
            || as_long_long(args[0], &numerator) < 0
            || as_long_long(args[1], &level) < 0)
        return NULL;
    if (level > 63) {
        PyErr_SetString(PyExc_OverflowError, "level above 63");
        return NULL;
    }
    PyObject *seq = PySequence_Tuple(args[2]);
    if (seq == NULL)
        return NULL;
    for (long long j = 1; j <= level; j++) {
        if ((numerator >> (level - j)) & 1) {
            if (rung_at(seq, j, &rung) < 0) {
                Py_DECREF(seq);
                return NULL;
            }
            v *= rung;
        }
    }
    Py_DECREF(seq);
    return PyFloat_FromDouble(v);
}

static PyObject *
int_pow(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double b, r = 1.0;
    long long m;
    if (!nargs_ok("int_pow", nargs, 2) || as_double(args[0], &b) < 0
            || as_long_long(args[1], &m) < 0)
        return NULL;
    if (m < 0) {
        PyErr_SetString(PyExc_ValueError, "int_pow needs m >= 0");
        return NULL;
    }
    double f = b;
    while (m) {
        if (m & 1)
            r *= f;
        m >>= 1;
        if (m)
            f *= f;
    }
    return PyFloat_FromDouble(r);
}

/* Row k is row[k & (k - 1)] times rung level - tz(k), tz(k) being the
 * trailing zero bits of k: clearing the lowest set bit drops the last
 * factor of the direct product, so every row keeps its factors, their
 * order and its bits.  The rows are written as native doubles straight
 * into the bytes object that is returned, and the earlier row is read
 * back from it. */
static PyObject *
table_values(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double ladder[63];
    long long level;
    if (!nargs_ok("table_values", nargs, 2) || as_long_long(args[1], &level) < 0)
        return NULL;
    if (level < 0) {
        PyErr_SetString(PyExc_ValueError, "negative shift count");
        return NULL;
    }
    if (level > 62) {
        PyErr_SetString(PyExc_OverflowError, "table level above 62");
        return NULL;
    }
    PyObject *seq = PySequence_Tuple(args[0]);
    if (seq == NULL)
        return NULL;
    for (long long j = 1; j <= level; j++) {
        if (rung_at(seq, j, &ladder[j]) < 0) {
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    Py_ssize_t n = (Py_ssize_t)1 << level;
    if (n > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double))
        return PyErr_NoMemory();
    PyObject *out = PyBytes_FromStringAndSize(NULL, n * (Py_ssize_t)sizeof(double));
    if (out == NULL)
        return NULL;
    double *row = (double *)PyBytes_AS_STRING(out);
    row[0] = 1.0;
    for (Py_ssize_t k = 1; k < n; k++) {
        int tz = 0;
        while (!((k >> tz) & 1))
            tz++;
        row[k] = row[k & (k - 1)] * ladder[level - tz];
    }
    return out;
}

static PyObject *
trapezoid_recip(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double x;
    long long steps;
    if (!nargs_ok("trapezoid_recip", nargs, 2) || as_double(args[0], &x) < 0
            || as_long_long(args[1], &steps) < 0)
        return NULL;
    if (x == 1.0)
        return PyFloat_FromDouble(0.0);
    if (steps == 0 || x == 0.0) {
        zero_division();
        return NULL;
    }
    double h = (x - 1.0) / (double)steps;
    double s = 0.5 * (1.0 + 1.0 / x);
    for (long long i = 1; i < steps; i++) {
        double t = 1.0 + (double)i * h;
        if (t == 0.0) {
            zero_division();
            return NULL;
        }
        s += 1.0 / t;
    }
    return PyFloat_FromDouble(s * h);
}

/* -------------------------------------------------------------- module */

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    KERNEL(default_guess, "Starting point for the square-root iteration."),
    KERNEL(heron_pairs, "Divide-and-average square-root iteration: "
                        "(pairs, result, converged)."),
    KERNEL(ladder_rungs, "Repeated square roots of base: (rungs, ok)."),
    KERNEL(log_split, "Characteristic plus greedy dyadic mantissa: "
                      "(characteristic, numerator, residual)."),
    KERNEL(mantissa_product, "Product of the rungs selected by the "
                             "numerator's bits."),
    KERNEL(int_pow, "b multiplied by itself m times (square-and-multiply)."),
    KERNEL(table_values, "Antilog values base^(k/2^level) for every k, "
                      "packed as native binary64 bytes."),
    KERNEL(trapezoid_recip, "Trapezoid sum of 1/t over [1, x]."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "logladder._kernels",
    "Compiled kernels, bit-identical to logladder._kernels_py.",
    0,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&kernels_module);
}
