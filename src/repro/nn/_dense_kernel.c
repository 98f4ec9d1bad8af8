/* The elementwise glue of a QBN training step and of an Adam step.
 *
 * A QuantizedBottleneckNetwork forward that builds a graph forms each
 * layer's product with numpy (the BLAS route matmul_np takes), then
 * repro_dense_bias adds the bias into that fresh product and numpy takes
 * its tanh in place; repro_dense_quantize snaps the latent to its levels.
 * Its backward forms every input and weight gradient with numpy, and
 * repro_dense_backward multiplies a fresh input gradient through the
 * tanh below it and sums the next bias's gradient over rows.
 * repro_dense_mse_grad is mse_loss's backward and repro_dense_adam one
 * Adam step over every parameter that holds a gradient.
 *
 * BIT-EXACTNESS CONTRACT: every array comes out byte-equal to the numpy
 * code that stays the specification (QuantizedBottleneckNetwork's numpy
 * forward and backward, nearest_level_indices, mse_loss's numpy backward,
 * Adam._apply's flat numpy pass).  Only IEEE add, subtract, multiply,
 * divide, sqrt, fabs and compares happen here, each on the operands and
 * in the order numpy applies them; every BLAS call and tanh stays
 * numpy's.  A bias sum starts from +0.0 and adds rows first to last, as
 * numpy's axis-0 reduce does for rows wider than one element.
 *
 * The build disables FP contraction and uses no unsafe-math flag, and
 * the loader runs every route through both paths before trusting the
 * library: any difference leaves numpy in charge.
 */

#include <math.h>
#include <stdint.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

/* out[r, j] += bias[j] for every row of an (rows, n) product. */
void repro_dense_bias(double *restrict out, const double *restrict bias, int64_t rows, int64_t n)
{
    for (int64_t r = 0; r < rows; r++) {
        double *restrict row = out + r * n;
        int64_t j = 0;
        /* Four independent lanes a pass, which -O2 packs into vector
         * adds of the same roundings. */
        for (; j + 4 <= n; j += 4) {
            row[j] += bias[j];
            row[j + 1] += bias[j + 1];
            row[j + 2] += bias[j + 2];
            row[j + 3] += bias[j + 3];
        }
        for (; j < n; j++)
            row[j] += bias[j];
    }
}

/* Clip each value to [-1, 1] (NaN stays NaN) and write the index of the
 * first level with the strictly smallest |v - level|, and that level.  A
 * NaN compares false with every distance, so it takes index 0, as
 * argmin gives the first NaN. */
void repro_dense_quantize(const double *restrict values, const double *restrict levels, int64_t k,
                          int64_t size, int64_t *restrict index, double *restrict code)
{
    for (int64_t e = 0; e < size; e++) {
        double v = values[e];
        v = v < -1.0 ? -1.0 : v;
        v = v > 1.0 ? 1.0 : v;
        int64_t best = 0;
        double nearest = fabs(v - levels[0]);
        for (int64_t j = 1; j < k; j++) {
            double distance = fabs(v - levels[j]);
            if (distance < nearest) {
                nearest = distance;
                best = j;
            }
        }
        index[e] = best;
        code[e] = levels[best];
    }
}

/* g = g * (1.0 - t * t) in place when t, then sums[j] = +0.0 + g[0, j]
 * + g[1, j] + ... when sums. */
void repro_dense_backward(double *restrict g, const double *restrict t, double *restrict sums,
                          int64_t rows, int64_t n)
{
    if (t) {
        const int64_t size = rows * n;
        int64_t e = 0;
        for (; e + 4 <= size; e += 4) {
            g[e] = g[e] * (1.0 - t[e] * t[e]);
            g[e + 1] = g[e + 1] * (1.0 - t[e + 1] * t[e + 1]);
            g[e + 2] = g[e + 2] * (1.0 - t[e + 2] * t[e + 2]);
            g[e + 3] = g[e + 3] * (1.0 - t[e + 3] * t[e + 3]);
        }
        for (; e < size; e++)
            g[e] = g[e] * (1.0 - t[e] * t[e]);
    }
    if (sums) {
        for (int64_t j = 0; j < n; j++)
            sums[j] = 0.0;
        for (int64_t r = 0; r < rows; r++) {
            const double *restrict row = g + r * n;
            int64_t j = 0;
            for (; j + 4 <= n; j += 4) {
                sums[j] += row[j];
                sums[j + 1] += row[j + 1];
                sums[j + 2] += row[j + 2];
                sums[j + 3] += row[j + 3];
            }
            for (; j < n; j++)
                sums[j] += row[j];
        }
    }
}

/* out = (c * d) + (c * d), the two product terms the square's node adds. */
void repro_dense_mse_grad(double *restrict out, const double *restrict diff, double c, int64_t size)
{
    int64_t e = 0;
    for (; e + 4 <= size; e += 4) {
        double t0 = c * diff[e], t1 = c * diff[e + 1], t2 = c * diff[e + 2], t3 = c * diff[e + 3];
        out[e] = t0 + t0;
        out[e + 1] = t1 + t1;
        out[e + 2] = t2 + t2;
        out[e + 3] = t3 + t3;
    }
    for (; e < size; e++) {
        double term = c * diff[e];
        out[e] = term + term;
    }
}

/* One Adam step.  Parameter p owns sizes[p] entries of the flat moment
 * buffers m and v, parameter after parameter; one whose grads[p] is NULL
 * keeps its data and moments.  c1 = 1 - b1 and c2 = 1 - b2 come rounded
 * from the caller, as numpy sees them.  Three divides and a square root
 * per entry bound the pass, so it runs two entries per SSE2 instruction
 * where it can: each lane rounds as the scalar instruction does. */
void repro_dense_adam(int64_t count, double *const *data, const double *const *grads,
                      const int64_t *sizes, double *m, double *v, double b1, double c1, double b2,
                      double c2, double bias1, double bias2, double lr, double eps)
{
    for (int64_t p = 0; p < count; p++) {
        const int64_t size = sizes[p];
        const double *g = grads[p];
        double *d = data[p];
        int64_t e = 0;
        if (!g)
            e = size;
#if defined(__SSE2__)
        const __m128d vb1 = _mm_set1_pd(b1), vc1 = _mm_set1_pd(c1);
        const __m128d vb2 = _mm_set1_pd(b2), vc2 = _mm_set1_pd(c2);
        const __m128d vbias1 = _mm_set1_pd(bias1), vbias2 = _mm_set1_pd(bias2);
        const __m128d vlr = _mm_set1_pd(lr), veps = _mm_set1_pd(eps);
        for (; e + 2 <= size; e += 2) {
            __m128d ge = _mm_loadu_pd(g + e);
            __m128d mean = _mm_add_pd(_mm_mul_pd(_mm_loadu_pd(m + e), vb1), _mm_mul_pd(vc1, ge));
            __m128d square = _mm_add_pd(_mm_mul_pd(_mm_loadu_pd(v + e), vb2),
                                        _mm_mul_pd(_mm_mul_pd(vc2, ge), ge));
            _mm_storeu_pd(m + e, mean);
            _mm_storeu_pd(v + e, square);
            __m128d step = _mm_div_pd(_mm_mul_pd(vlr, _mm_div_pd(mean, vbias1)),
                                      _mm_add_pd(_mm_sqrt_pd(_mm_div_pd(square, vbias2)), veps));
            _mm_storeu_pd(d + e, _mm_sub_pd(_mm_loadu_pd(d + e), step));
        }
#endif
        for (; e < size; e++) {
            double mean = m[e] * b1 + c1 * g[e];
            double square = v[e] * b2 + (c2 * g[e]) * g[e];
            m[e] = mean;
            v[e] = square;
            d[e] = d[e] - (lr * (mean / bias1)) / (sqrt(square / bias2) + eps);
        }
        m += size;
        v += size;
    }
}
