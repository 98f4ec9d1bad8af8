/* The elementwise glue of a GRU sequence node (repro.nn.rnn.Unrolled).
 *
 * Per forward step the caller forms the three hidden projections with
 * numpy (the BLAS route matmul_np takes), then repro_gru_gates writes the
 * negated sigmoid arguments into the reset and update rows, numpy takes
 * their exp in place, repro_gru_candidate forms the gates and the
 * candidate pre-activation, numpy takes its tanh in place, and
 * repro_gru_blend writes h_{t+1} and refills the projection pad.  Per
 * backward step the caller forms step t+1's three hidden terms with
 * numpy, and repro_gru_backward adds them into h_t's gradient and forms
 * step t's gate gradients.  The parameter gradients are numpy's, one
 * gemm or sum over every step (linear.accumulate_steps), in every build.
 *
 * BIT-EXACTNESS CONTRACT: every array comes out byte-equal to the numpy
 * loop in rnn.py (Unrolled._forward_numpy, Unrolled._backward_numpy),
 * which stays the specification.  Only IEEE add, subtract, multiply,
 * divide and negate happen here, each on the operands and in the order
 * numpy applies them; every BLAS call, exp and tanh stays numpy's.
 *
 * The build disables FP contraction and uses no unsafe-math flag, and
 * the loader runs every route through both paths before trusting the
 * library: any difference leaves numpy in charge.
 */

#include <stdint.h>

typedef struct {
    const double *x_r, *x_z, *x_n;      /* (T, n) input projections */
    const double *p_r, *p_z, *p_n;      /* hidden projections, first n used */
    const double *b_r, *b_z, *b_n;      /* (hidden,) */
    double *reset, *update, *carried, *candidate; /* (T, n) */
    double *hiddens;                    /* (T + 1, n) */
    double *pad;                        /* (pad_rows, hidden) next step's operand */
    const double *grad;                 /* (T, n) */
    const double *t_r, *t_hn, *t_z;     /* step t+1's hidden terms, first n used */
    double *g;                          /* (n,) h_t's gradient */
    double *g_n, *g_r, *g_hn, *g_z;     /* (T, n), last step first */
    int64_t steps, n, hidden, pad_rows;
} gru_args;

/* -((x + p) + b) for the reset and update gates of step t. */
void repro_gru_gates(const gru_args *a, int64_t t)
{
    const int64_t n = a->n, h = a->hidden, o = t * n;
    for (int64_t i = 0; i < n; i++) {
        a->reset[o + i] = -((a->x_r[o + i] + a->p_r[i]) + a->b_r[i % h]);
        a->update[o + i] = -((a->x_z[o + i] + a->p_z[i]) + a->b_z[i % h]);
    }
}

/* The gates from their exps, then x_n + r * (h W_hn) + b_n. */
void repro_gru_candidate(const gru_args *a, int64_t t)
{
    const int64_t n = a->n, h = a->hidden, o = t * n;
    for (int64_t i = 0; i < n; i++) {
        double r = 1.0 / (1.0 + a->reset[o + i]);
        a->reset[o + i] = r;
        a->update[o + i] = 1.0 / (1.0 + a->update[o + i]);
        a->carried[o + i] = a->p_n[i];
        a->candidate[o + i] = (a->x_n[o + i] + r * a->p_n[i]) + a->b_n[i % h];
    }
}

/* h_{t+1} = (1 - z) * n + z * h_t, into hiddens and every pad row. */
void repro_gru_blend(const gru_args *a, int64_t t)
{
    const int64_t n = a->n, o = t * n;
    const double *z = a->update + o, *c = a->candidate + o, *prev = a->hiddens + o;
    double *next = a->hiddens + o + n;
    for (int64_t i = 0; i < n; i++)
        next[i] = (1.0 - z[i]) * c[i] + z[i] * prev[i];
    for (int64_t row = 0; row < a->pad_rows * a->hidden; row += n)
        for (int64_t i = 0; i < n; i++)
            a->pad[row + i] = next[i];
}

/* h_t's gradient (grad[t], plus step t+1's four terms below the last
 * step), then step t's g_n, g_r, g_hn and g_z. */
void repro_gru_backward(const gru_args *a, int64_t t)
{
    const int64_t n = a->n, o = t * n, k = (a->steps - 1 - t) * n;
    const double *grad = a->grad + o, *u = a->update + o, *c = a->candidate + o;
    const double *r = a->reset + o, *carried = a->carried + o, *h = a->hiddens + o;
    double *g = a->g;
    if (t == a->steps - 1) {
        for (int64_t i = 0; i < n; i++)
            g[i] = grad[i];
    } else {
        const double *u_next = u + n;
        for (int64_t i = 0; i < n; i++)
            g[i] = (((grad[i] + a->t_r[i]) + a->t_hn[i]) + g[i] * u_next[i]) + a->t_z[i];
    }
    for (int64_t i = 0; i < n; i++) {
        double fresh = 1.0 - u[i];
        double g_n = (g[i] * fresh) * (1.0 - c[i] * c[i]);
        a->g_n[k + i] = g_n;
        a->g_r[k + i] = ((g_n * carried[i]) * r[i]) * (1.0 - r[i]);
        a->g_hn[k + i] = g_n * r[i];
        a->g_z[k + i] = ((-(g[i] * c[i]) + g[i] * h[i]) * u[i]) * fresh;
    }
}
