/* Compiled Numerov sweep.
 *
 * Statement-for-statement twin of etcrit._numerov_py.numerov_sweep; see
 * there for the meaning of the arguments and the returned tuple.  setup.py
 * builds this file with floating-point contraction off (-ffp-contract=off),
 * so no fused multiply-add changes a rounding and both backends agree bit
 * for bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

static PyObject *
numerov_sweep(PyObject *self, PyObject *args)
{
    PyObject *obj;
    Py_buffer view;
    double energy, h2, u1;

    if (!PyArg_ParseTuple(args, "Oddd:numerov_sweep", &obj, &energy, &h2, &u1))
        return NULL;
    if (PyObject_GetBuffer(obj, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    if (view.ndim != 1 || view.format == NULL || strcmp(view.format, "d") != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError,
                        "w must be a 1-D contiguous buffer of float64");
        return NULL;
    }
    if (view.shape[0] < 2) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError, "w needs at least two points");
        return NULL;
    }

    const double *w = (const double *)view.buf;
    Py_ssize_t n = view.shape[0] - 1;
    double c = h2 / 12.0;
    double up = 0.0;
    double tp = 0.0;
    double u = u1;
    double t = c * (w[1] - energy);
    Py_ssize_t nodes = 0;
    double umax = fabs(u);
    double un, tn, au;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 2; i <= n; i++) {
        tn = c * (w[i] - energy);
        un = (u * (2.0 + 10.0 * t) - up * (1.0 - tp)) / (1.0 - tn);
        if ((un < 0.0 && u > 0.0) || (un > 0.0 && u < 0.0))
            nodes += 1;
        up = u;
        tp = t;
        u = un;
        t = tn;
        au = fabs(u);
        if (au > umax)
            umax = au;
        if (au > 1e250) {
            up /= au;
            u /= au;
            umax /= au;
        }
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&view);
    return Py_BuildValue("(nddd)", nodes, up, u, umax);
}

static PyMethodDef methods[] = {
    {"numerov_sweep", numerov_sweep, METH_VARARGS,
     "numerov_sweep(w, energy, h2, u1) -> (nodes, u_secondlast, u_last, "
     "u_maxabs)\n\nCompiled twin of etcrit._numerov_py.numerov_sweep; w must "
     "be a 1-D C-contiguous float64 buffer with at least two points."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_numerov",
    "Compiled Numerov sweep (twin of etcrit._numerov_py).", -1, methods
};

PyMODINIT_FUNC
PyInit__numerov(void)
{
    return PyModule_Create(&module);
}
