/* Three of engine.py's loops, compiled: run()'s step loop, the running
 * mean of the time averages and write_table's row join.  Each gives the
 * bits of its Python form in engine.py, which runs in its place without a
 * compiler: step_loop those of the public updates x_update, y_update and
 * the dual step, running_mean and join_rows those of running_mean's NumPy
 * form and of _join_rows.  Each step's row records the x and y it stepped
 * with; run() derives only d from the rows.  Every sum runs left to right
 * with one rounding per operation, as Python floats and NumPy's elementwise
 * operations do; engine._CFLAGS keeps the compiler from fusing or reordering
 * them.  engine._kernel compiles it once per machine, loads it via ctypes. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* fails to compile where double expressions are evaluated in a wider type,
 * as on x87 */
typedef char double_expressions_are_double[sizeof(double_t) == sizeof(double) ? 1 : -1];

/* Runs steps start..stop-1 from the dual state held in state, w (J values)
 * then z (I values), and leaves the state after them there.  Row t of rows
 * (J + 3I doubles) gets w and z before step t, then the step's x and y.
 *
 * A (J x I, row-major) and b give the constraints g = b + A y.
 * The decision set: npoints == 0 is a grid, xset its lowest values (I) then
 * its highest (I); otherwise xset holds the npoints explicit points (npoints
 * x I, row-major, in lexicographic order).
 * Piece i: par[off[i]..off[i+1]) holds lo, hi (its box), its curvature a
 * and, for a != 0, its slope; for a == 0 the chain of its slopes and
 * breakpoints inside (lo, hi): the slope right of lo, then each interior
 * breakpoint, increasing, followed by the slope right of it. */
void step_loop(int64_t I, int64_t J, double v, const double *A, const double *b,
               int64_t npoints, const double *xset,
               const int64_t *off, const double *par,
               double *state, double *rows, int64_t start, int64_t stop)
{
    double *w = state, *z = state + J;
    for (int64_t t = start; t < stop; t++) {
        double *row = rows + t * (J + 3 * I), *x = row + J + I, *y = x + I;
        for (int64_t j = 0; j < J; j++)
            row[j] = w[j];
        for (int64_t i = 0; i < I; i++)
            row[J + i] = z[i];

        /* x: the grid's sign rule, ties to the lowest value; or the first
         * minimum of the scores z0*p0 + z1*p1 + ..., where, as in numpy's
         * argmin, a NaN score counts as the minimum */
        if (npoints == 0) {
            for (int64_t i = 0; i < I; i++)
                x[i] = z[i] >= 0.0 ? xset[i] : xset[I + i];
        } else {
            const double *pick = xset;
            double best = 0.0;
            for (int64_t k = 0; k < npoints; k++) {
                const double *p = xset + k * I;
                double s = z[0] * p[0];
                for (int64_t i = 1; i < I; i++)
                    s = s + z[i] * p[i];
                if (k == 0 || !(s >= best)) {
                    best = s;
                    pick = p;
                    if (s != s)
                        break;
                }
            }
            for (int64_t i = 0; i < I; i++)
                x[i] = pick[i];
        }

        /* y: each piece's minimizer of piece(y) + c*y on its box, at
         * c = -z_i + w_0*A_0i + ... */
        for (int64_t i = 0; i < I; i++) {
            const double *q = par + off[i], *end = par + off[i + 1];
            double lo = q[0], hi = q[1], a = q[2];
            double c = -z[i];
            for (int64_t j = 0; j < J; j++)
                c = c + w[j] * A[j * I + i];
            if (a != 0.0) {
                /* 2.0 * a may overflow to inf, and the vertex with it */
                double u = -(q[3] + c) / (2.0 * a);
                y[i] = u < lo ? lo : (u > hi ? hi : u);
            } else {
                /* lo if the slope right of it is nonnegative after the
                 * shift, else the first breakpoint whose right slope is,
                 * else hi */
                double r = hi;
                for (const double *e = q + 4; e < end; e += 2)
                    if (e[1] + c >= 0.0) {
                        r = e[0];
                        break;
                    }
                y[i] = q[3] + c >= 0.0 ? lo : r;
            }
        }

        /* the dual step: w <- [w + g/V]+ with g_j = b_j + A_j0*y_0 + ...,
         * z <- z + (x - y)/V */
        for (int64_t j = 0; j < J; j++) {
            double g = b[j];
            for (int64_t i = 0; i < I; i++)
                g = g + A[j * I + i] * y[i];
            double u = w[j] + g / v;
            w[j] = u > 0.0 ? u : 0.0;
        }
        for (int64_t i = 0; i < I; i++)
            z[i] = z[i] + (x[i] - y[i]) / v;
    }
}

/* Row k of out (n x m, row-major) gets the mean of rows 0..k of a, whose
 * element (k, i) sits at a[k * rs + i * cs].  Per column, as the NumPy form
 * takes it: the plain running sum hi, and the running sum e of the exact
 * rounding error of each of its additions, found by TwoSum; e starts at
 * -0.0, which adds exactly, as a cumulative sum takes its first term. */
void running_mean(int64_t n, int64_t m, const double *a, int64_t rs, int64_t cs, double *out)
{
    for (int64_t i0 = 0; i0 < m; i0 += 8) {
        double hi[8], e[8];
        int64_t width = m - i0 < 8 ? m - i0 : 8;
        for (int64_t i = 0; i < width; i++) {
            hi[i] = 0.0;
            e[i] = -0.0;
        }
        for (int64_t k = 0; k < n; k++) {
            const double *row = a + k * rs + i0 * cs;
            double count = (double)(k + 1);
            for (int64_t i = 0; i < width; i++) {
                double x = row[i * cs], total = hi[i] + x, part = total - hi[i];
                e[i] = e[i] + ((hi[i] - (total - part)) + (x - part));
                hi[i] = total;
                out[k * m + i0 + i] = (total + e[i]) / count;
            }
        }
    }
}

/* Line r < m of one CSV chunk: row r of each of the n texts in turn, joined
 * by ',' and ended by '\n'.  Text k (lens[k] bytes; both advance as rows are
 * read) holds rows separated by "],[" and no other ']'.  Returns the bytes
 * written to out (cap bytes), or -1 if a text holds other than m rows (at
 * least one, as split counts them) or out is too small; it never reads or
 * writes past either. */
int64_t join_rows(int64_t n, const char **texts, int64_t *lens, int64_t m, char *out, int64_t cap)
{
    int64_t o = 0;
    if (m == 0 && n > 0)
        return -1;
    for (int64_t r = 0; r < m; r++)
        for (int64_t k = 0; k < n; k++) {
            const char *p = texts[k], *close = memchr(p, ']', (size_t)lens[k]);
            int64_t len = close ? close - p : lens[k], skip = close ? len + 3 : 0;
            if ((close == NULL) != (r == m - 1) || skip > lens[k] || len + 1 > cap - o
                || (close && (close[1] != ',' || close[2] != '[')))
                return -1;
            memcpy(out + o, p, (size_t)len);
            o += len;
            out[o++] = k + 1 < n ? ',' : '\n';
            texts[k] += skip;
            lens[k] -= skip;
        }
    return o;
}
