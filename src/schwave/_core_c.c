/* Compiled leapfrog kernel; the contract is _core_py.leapfrog_window's.

   Plain C on the buffer protocol (no numpy C-API), so setuptools and a C
   compiler build it offline.  Three departures from the numpy twin:

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
   operations in its order and folds its vt into the lanes.  The pass is
   inlined once per exponent, so the compiler vectorizes it (sqrt included,
   given -fno-math-errno).  On x86-64 glibc the loader picks an AVX2 clone
   (no FMA) where the CPU has it; ISA names the copy in use. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>
#if defined(__SSE2__)
#include <xmmintrin.h>
#define FTZ_DAZ 0x8040u
#endif

#define LANES 8
#define INLINE static inline __attribute__((always_inline))
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#define ISA_IN_USE (__builtin_cpu_supports("avx2") ? "avx2" : "default")
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
INLINE void node(const double *vp, const double *vc, double *vnext,
                 const double *W, const double *h, const double *phi,
                 Py_ssize_t i, double dt, double inv_ds2, int q, int j,
                 double *mx, double *s1, double *s2)
{
    double dt2 = dt * dt, inv2dt = 0.5 / dt;
    double lap = (vc[i - 1] - 2.0 * vc[i] + vc[i + 1]) * inv_ds2;
    double lin = lap - W[i] * vc[i];
    double base = 2.0 * vc[i] - vp[i];
    double pred = (vc[i] - vp[i]) / dt;
    double vn = base + dt2 * (lin + h[i] * abs_pow(pred, q));
    double vtc = (vn - vp[i]) * inv2dt;
    vnext[i] = vn = base + dt2 * (lin + h[i] * abs_pow(vtc, q));
    double vt = (vn - vp[i]) * inv2dt, a = fabs(vt);
    mx[j] = (a > mx[j] || a != a) ? a : mx[j]; /* NaN sticks, as in np.max */
    s1[j] += phi[i] * vt;
    s2[j] += h[i] * phi[i] * abs_pow(vt, q);
}

/* The whole step on [lo, hi]; called with a literal q so each copy vectorizes. */
INLINE void pass(const double *vp, const double *vc, double *vnext,
                 const double *W, const double *h, const double *phi,
                 Py_ssize_t lo, Py_ssize_t hi, double dt, double inv_ds2,
                 int q, double out[3])
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

static void CLONES step(const double *vp, const double *vc, double *vnext,
                        const double *W, const double *h, const double *phi,
                        Py_ssize_t lo, Py_ssize_t hi, double dt, double inv_ds2,
                        int q, double out[3])
{
    switch (q) {
    case 8: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, 8, out); break;
    case 7: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, 7, out); break;
    case 6: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, 6, out); break;
    default: pass(vp, vc, vnext, W, h, phi, lo, hi, dt, inv_ds2, q, out);
    }
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
        Py_buffer *b = &buf[k];
        if (PyObject_GetBuffer(obj[k], b, k == 2 ? PyBUF_RECORDS : PyBUF_RECORDS_RO) < 0)
            goto done;
        got++;
        if (b->ndim != 1 || b->itemsize != 8 || strcmp(b->format, "d") != 0
                || !PyBuffer_IsContiguous(b, 'C')) {
            PyErr_Format(PyExc_ValueError,
                         "%s must be a 1-d C-contiguous float64 buffer", NAMES[k]);
            goto done;
        }
        if (k == 0)
            n = b->shape[0];
        if (b->shape[0] != n) {
            PyErr_Format(PyExc_ValueError, "%s has length %zd, v_prev has %zd",
                         NAMES[k], b->shape[0], n);
            goto done;
        }
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

static PyMethodDef methods[] = {
    {"leapfrog_window", leapfrog_window, METH_VARARGS,
     "leapfrog_window(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2, lo, hi)\n"
     "--\n\nAdvance one leapfrog step on [lo, hi]; see the numpy twin for the "
     "contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_core_c", "Compiled leapfrog kernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__core_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "ISA", ISA_IN_USE) < 0)
        Py_CLEAR(m);
    return m;
}
