/* Compiled twins of _core_py: the leapfrog kernel and the phi shooter.

   Plain C on the buffer protocol (no numpy C-API), so setuptools and a C
   compiler build it offline; the caller allocates every array.

   shoot_phi runs _core_py.shoot_phi's RK4 recurrence with the same
   operations in the same order and libm's log, so under -ffp-contract=off
   its phi, dphi and offsets are bit-identical to the Python loop.

   leapfrog_window has _core_py.leapfrog_window's contract, with three
   departures from the numpy twin:

   - |x|^p is evaluated without pow, and only for p = 1, 1.25, 1.5, 1.75, 2
     (4p an integer): p = 2 is b*b, bit-identical to numpy; the others are
     sqrt chains that agree with numpy's pow to rounding.
     backend.leapfrog_window sends every other p to numpy.
   - On SSE2 the loop runs with flush-to-zero and denormals-are-zero, so a
     window fringe below DBL_MIN reads and writes as 0 instead of taking
     the slow subnormal path.  The caller's MXCSR is restored afterwards.
   - The window sums run in LANES fixed partial sums: node lo + k adds to
     lane k % LANES in order, and lanes 0, 1, ..., LANES - 1 are combined
     at the end, so every vector width gives the same sums.

   One pass per step computes each node's v_next with the numpy twin's
   operations in its order and folds its vt into the lanes; like the twin,
   the predictor multiplies by 1/dt rather than dividing by dt.  The pass is
   inlined once per exponent, so the compiler vectorizes it (sqrt included,
   given -fno-math-errno).  On x86-64 glibc the loader picks an AVX-512F
   clone, whose zmm registers hold the 8 lanes, else an AVX2 clone, else
   the SSE2 default; none uses FMA, so all three give the same bits.  ISA
   names the copy in use.

   Every buffer pointer on the kernel path is restrict, so v_next may share
   no byte with an input; leapfrog_window checks this and raises ValueError
   (the inputs, only read, may alias each other).  Without restrict the
   compiler must assume a store to v_next can change an input or a lane
   sum: it tests the pointers for overlap per 8-node block and keeps the
   lane sums in memory.  With it the AVX-512 p = 2 block is 44 instructions
   with the sums in registers.  p = 1.75 gains little: its six square roots
   per node bound it. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__SSE2__)
#include <xmmintrin.h>
#define FTZ_DAZ 0x8040u
#endif

#define LANES 8
#define INLINE static inline __attribute__((always_inline))
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define ISA_IN_USE (__builtin_cpu_supports("avx512f") ? "avx512f"     \
                    : __builtin_cpu_supports("avx2") ? "avx2" : "default")
#endif
#endif
#ifndef CLONES
#define CLONES
#define ISA_IN_USE "default"
#endif

INLINE double abs_pow(double a, int q) /* |a|^(q/4), 4 <= q <= 8 */
{
    double b = fabs(a), r;
    switch (q) {
    case 8: return b * b;
    case 7: r = sqrt(b); return b * r * sqrt(r);
    case 6: return b * sqrt(b);
    case 5: return b * sqrt(sqrt(b));
    default: return b;
    }
}

/* Writes v_next[i] and folds its centred vt into lane j of the sums. */
INLINE void node(const double *restrict vp, const double *restrict vc,
                 double *restrict vnext, const double *restrict W,
                 const double *restrict h, const double *restrict phi,
                 Py_ssize_t i, double dt, double inv_ds2, int q, int j,
                 double *restrict mx, double *restrict s1, double *restrict s2)
{
    double dt2 = dt * dt, invdt = 1.0 / dt, inv2dt = 0.5 / dt;
    double lap = (vc[i - 1] - 2.0 * vc[i] + vc[i + 1]) * inv_ds2;
    double lin = lap - W[i] * vc[i];
    double base = 2.0 * vc[i] - vp[i];
    double pred = (vc[i] - vp[i]) * invdt;
    double vn = base + dt2 * (lin + h[i] * abs_pow(pred, q));
    double vtc = (vn - vp[i]) * inv2dt;
    vnext[i] = vn = base + dt2 * (lin + h[i] * abs_pow(vtc, q));
    double vt = (vn - vp[i]) * inv2dt, a = fabs(vt);
    mx[j] = (a > mx[j] || a != a) ? a : mx[j]; /* NaN sticks, as in np.max */
    s1[j] += phi[i] * vt;
    s2[j] += h[i] * phi[i] * abs_pow(vt, q);
}

/* The whole step on [lo, hi]; called with a literal q so each copy vectorizes. */
INLINE void pass(const double *restrict vp, const double *restrict vc,
                 double *restrict vnext, const double *restrict W,
                 const double *restrict h, const double *restrict phi,
                 Py_ssize_t lo, Py_ssize_t hi, double dt, double inv_ds2,
                 int q, double *restrict out)
{
    double mx[LANES] = {0.0}, s1[LANES] = {0.0}, s2[LANES] = {0.0};
    Py_ssize_t i = lo;
    for (; i + LANES - 1 <= hi; i += LANES)
        for (int j = 0; j < LANES; j++)
            node(vp, vc, vnext, W, h, phi, i + j, dt, inv_ds2, q, j, mx, s1, s2);
    for (int j = 0; i + j <= hi; j++)
        node(vp, vc, vnext, W, h, phi, i + j, dt, inv_ds2, q, j, mx, s1, s2);
    for (int j = 1; j < LANES; j++) {
        mx[0] = (mx[j] > mx[0] || mx[j] != mx[j]) ? mx[j] : mx[0];
        s1[0] += s1[j];
        s2[0] += s2[j];
    }
    out[0] = mx[0], out[1] = s1[0], out[2] = s2[0];
}

static void CLONES step(const double *restrict vp, const double *restrict vc,
                        double *restrict vnext, const double *restrict W,
                        const double *restrict h, const double *restrict phi,
                        Py_ssize_t lo, Py_ssize_t hi, double dt, double inv_ds2,
                        int q, double *restrict out)
{
    switch (q) {
    case 8: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, 8, out); break;
    case 7: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, 7, out); break;
    case 6: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, 6, out); break;
    default: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, q, out);
    }
}

/* Gets obj's buffer, writable if asked; unless it is 1-d C-contiguous
   float64, releases it, sets ValueError naming the argument and returns -1. */
static int get_doubles(PyObject *obj, Py_buffer *b, int writable, const char *name)
{
    if (PyObject_GetBuffer(obj, b, writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO) < 0)
        return -1;
    if (b->ndim != 1 || b->itemsize != 8 || strcmp(b->format, "d") != 0
            || !PyBuffer_IsContiguous(b, 'C')) {
        PyBuffer_Release(b);
        PyErr_Format(PyExc_ValueError, "%s must be a 1-d C-contiguous float64 buffer",
                     name);
        return -1;
    }
    return 0;
}

/* Whether two buffers share a byte; step's restrict needs v_next to share none. */
static int overlaps(const Py_buffer *a, const Py_buffer *b)
{
    uintptr_t a0 = (uintptr_t)a->buf, b0 = (uintptr_t)b->buf;
    return a0 < b0 + (uintptr_t)b->len && b0 < a0 + (uintptr_t)a->len;
}

static const char *NAMES[6] = {"v_prev", "v_curr", "v_next", "W", "h", "phi"};

static PyObject *leapfrog_window(PyObject *self, PyObject *args)
{
    PyObject *obj[6], *result = NULL;
    Py_buffer buf[6];
    double p, dt, inv_ds2;
    Py_ssize_t lo, hi, n = 0;
    int k, got = 0;

    if (!PyArg_ParseTuple(args, "OOOOOOdddnn:leapfrog_window", &obj[0], &obj[1],
                          &obj[2], &obj[3], &obj[4], &obj[5], &p, &dt, &inv_ds2,
                          &lo, &hi))
        return NULL;
    for (k = 0; k < 6; k++) {
        if (get_doubles(obj[k], &buf[k], k == 2, NAMES[k]) < 0)
            goto done;
        got++;
        if (k == 0)
            n = buf[0].shape[0];
        if (buf[k].shape[0] != n) {
            PyErr_Format(PyExc_ValueError, "%s has length %zd, v_prev has %zd",
                         NAMES[k], buf[k].shape[0], n);
            goto done;
        }
    }
    for (k = 0; k < 6; k++)
        if (k != 2 && overlaps(&buf[2], &buf[k])) {
            PyErr_Format(PyExc_ValueError, "v_next shares memory with %s", NAMES[k]);
            goto done;
        }
    if (!(p >= 1.0 && p <= 2.0) || 4.0 * p != (int)(4.0 * p)) {
        PyErr_Format(PyExc_ValueError, "p must be 1, 1.25, 1.5, 1.75 or 2, got %R",
                     PyTuple_GET_ITEM(args, 6));
        goto done;
    }
    int q = (int)(4.0 * p);
    if (lo <= hi && (lo < 1 || hi > n - 2)) {
        PyErr_Format(PyExc_ValueError, "window [%zd, %zd] outside [1, %zd]",
                     lo, hi, n - 2);
        goto done;
    }

    const double *vp = buf[0].buf, *vc = buf[1].buf, *W = buf[3].buf,
                 *h = buf[4].buf, *phi = buf[5].buf;
    double *vnext = buf[2].buf, out[3];
    Py_BEGIN_ALLOW_THREADS
#if defined(__SSE2__)
    unsigned int csr = _mm_getcsr();
    _mm_setcsr(csr | FTZ_DAZ);
#endif
    step(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, q, out);
#if defined(__SSE2__)
    _mm_setcsr(csr);
#endif
    Py_END_ALLOW_THREADS
    result = Py_BuildValue("(ddd)", out[0], out[1], out[2]);
done:
    for (k = 0; k < got; k++)
        PyBuffer_Release(&buf[k]);
    return result;
}

/* phi'' = c phi by RK4 from (1, A); c holds nodes and midpoints alternately. */
static void shoot(const double *c, double *raw, double *draw, double *offs,
                  Py_ssize_t m, double A, double ds, double cap)
{
    double y1 = 1.0, y2 = A, off = 0.0, half = 0.5 * ds;
    raw[0] = y1, draw[0] = y2, offs[0] = off;
    for (Py_ssize_t j = 0; j < m - 1; j++) {
        double c0 = c[2 * j], ch = c[2 * j + 1], c1 = c[2 * j + 2];
        double k1a = y2, k1b = c0 * y1;
        double k2a = y2 + half * k1b, k2b = ch * (y1 + half * k1a);
        double k3a = y2 + half * k2b, k3b = ch * (y1 + half * k2a);
        double k4a = y2 + ds * k3b, k4b = c1 * (y1 + ds * k3a);
        y1 += ds / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a);
        y2 += ds / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b);
        if (y1 > cap) {
            off += log(y1);
            y2 /= y1;
            y1 = 1.0;
        }
        raw[j + 1] = y1, draw[j + 1] = y2, offs[j + 1] = off;
    }
}

static const char *SHOOT_NAMES[4] = {"c", "raw", "draw", "offs"};

static PyObject *shoot_phi(PyObject *self, PyObject *args)
{
    PyObject *obj[4], *result = NULL;
    Py_buffer buf[4];
    double A, ds, cap;
    Py_ssize_t m = 0;
    int k, got = 0;

    if (!PyArg_ParseTuple(args, "OOOOddd:shoot_phi", &obj[0], &obj[1], &obj[2],
                          &obj[3], &A, &ds, &cap))
        return NULL;
    for (k = 0; k < 4; k++) {
        if (get_doubles(obj[k], &buf[k], k > 0, SHOOT_NAMES[k]) < 0)
            goto done;
        got++;
        if (k == 1)
            m = buf[1].shape[0];
        if (k > 1 && buf[k].shape[0] != m) {
            PyErr_Format(PyExc_ValueError, "%s has length %zd, raw has %zd",
                         SHOOT_NAMES[k], buf[k].shape[0], m);
            goto done;
        }
    }
    if (m < 1 || buf[0].shape[0] != 2 * m - 1) {
        PyErr_Format(PyExc_ValueError, "c has length %zd, need 2 * len(raw) - 1 "
                     "with len(raw) >= 1 (raw has %zd)", buf[0].shape[0], m);
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    shoot(buf[0].buf, buf[1].buf, buf[2].buf, buf[3].buf, m, A, ds, cap);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    for (k = 0; k < got; k++)
        PyBuffer_Release(&buf[k]);
    return result;
}

static PyMethodDef methods[] = {
    {"leapfrog_window", leapfrog_window, METH_VARARGS,
     "leapfrog_window(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2, lo, hi)\n"
     "--\n\nAdvance one leapfrog step on [lo, hi]; see the numpy twin for the "
     "contract."},
    {"shoot_phi", shoot_phi, METH_VARARGS,
     "shoot_phi(c, raw, draw, offs, A, ds, cap)\n"
     "--\n\nRK4-shoot phi'' = c phi into raw, draw, offs; see the Python twin "
     "for the contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_core_c", "Compiled leapfrog kernel and phi shooter.", -1, methods,
};

PyMODINIT_FUNC PyInit__core_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "ISA", ISA_IN_USE) < 0)
        Py_CLEAR(m);
    return m;
}
