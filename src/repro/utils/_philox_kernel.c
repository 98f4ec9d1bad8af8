/* Fused Philox4x32-10 idle sampler for the counter-based RNG family.
 *
 * One call of repro_philox_idle draws every multi-core (slot, level)
 * cell's uniform from the lane's (episode, cursor) counter stream and
 * inverts the Poisson CDF on the cells whose uniform clears the k=0 term,
 * writing the clamped idle counts (repro_philox_uniforms: one uniform per
 * lane).  This replaces ~30 tiny-array numpy dispatches per simulator
 * interval with one C call, which is what makes the Philox family
 * competitive at small batch sizes.
 *
 * BIT-EXACTNESS CONTRACT: unlike the GRU kernel (allclose budget), this
 * file must reproduce the pure-numpy sampler bit for bit — Philox golden
 * traces are pinned against the numpy path and native availability must
 * not change trajectories.  Everything here is exactly-rounded IEEE
 * arithmetic in the numpy path's operation order:
 *
 *   - the keystream is pure integer math;
 *   - the double construction (high * 2^26 + low) * 2^-53 is exact;
 *   - exp(-lam) is NOT computed here (numpy's exp may differ from libm
 *     by an ulp) — callers pass the numpy-computed term matrix in;
 *   - the inversion loop performs the same divide/multiply/add sequence
 *     per element as rng._poisson_from_uniform, with the same global
 *     iteration cap over the firing cells.
 *
 * The build therefore must NOT use -ffast-math/-funsafe-math flags, and
 * uses -ffp-contract=off so no FMA contraction changes roundings.  As a
 * final guard, repro.native self-checks both entry points against the
 * numpy reference at load time and disables the library on any
 * mismatch, so a miscompiled build degrades to the numpy path instead of
 * corrupting pinned streams.
 */

#include <math.h>
#include <stdint.h>

#define PHILOX_M0 0xD2511F53u
#define PHILOX_M1 0xCD9E8D57u
#define PHILOX_W0 0x9E3779B9u
#define PHILOX_W1 0xBB67AE85u
#define PHILOX_ROUNDS 10

/* (high 27 bits) * 2^26 + (low 26 bits), scaled by 2^-53: exact, same
 * construction as rng._philox_uniforms. */
static double philox_uniform(uint64_t episode, uint64_t counter,
                             const uint32_t *kr0, const uint32_t *kr1) {
    uint32_t c0 = (uint32_t)(counter & 0xFFFFFFFFu);
    uint32_t c1 = (uint32_t)(counter >> 32);
    uint32_t c2 = (uint32_t)(episode & 0xFFFFFFFFu);
    uint32_t c3 = (uint32_t)(episode >> 32);
    for (int r = 0; r < PHILOX_ROUNDS; r++) {
        uint64_t p0 = (uint64_t)PHILOX_M0 * c0;
        uint64_t p1 = (uint64_t)PHILOX_M1 * c2;
        c0 = (uint32_t)(p1 >> 32) ^ c1 ^ kr0[r];
        c1 = (uint32_t)(p1 & 0xFFFFFFFFu);
        c2 = (uint32_t)(p0 >> 32) ^ c3 ^ kr1[r];
        c3 = (uint32_t)(p0 & 0xFFFFFFFFu);
    }
    double high = (double)(c0 >> 5);
    double low = (double)(c1 >> 6);
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0);
}

static void philox_round_keys(uint64_t key0, uint64_t key1, uint32_t *kr0,
                              uint32_t *kr1) {
    for (int r = 0; r < PHILOX_ROUNDS; r++) {
        kr0[r] = (uint32_t)(key0 + (uint64_t)r * PHILOX_W0);
        kr1[r] = (uint32_t)(key1 + (uint64_t)r * PHILOX_W1);
    }
}

/* out[i] = rng._philox_uniforms of lane i's (cursor, episode) counter;
 * the caller advances the cursors. */
void repro_philox_uniforms(const uint64_t *episodes, const uint64_t *cursors,
                           double *out, uint64_t key0, uint64_t key1,
                           long n) {
    uint32_t kr0[PHILOX_ROUNDS], kr1[PHILOX_ROUNDS];
    philox_round_keys(key0, key1, kr0, kr1);
    for (long i = 0; i < n; i++) {
        out[i] = philox_uniform(episodes[i], cursors[i], kr0, kr1);
    }
}

/* Idle sampling for n lanes x `levels` levels.
 *
 * Inputs: per-lane episode ids and start cursors; per-cell core counts,
 * lam = idle_rate * count, and term = exp(-lam) (numpy-computed).  Cells
 * with count <= 1 draw nothing, exactly like the scalar simulator skip;
 * eligible cells consume consecutive cursor values in level order.
 *
 * Outputs: idle[cell] = min(poisson_inverse(u, lam), count - 1) for
 * firing cells, 0 elsewhere (fully written); ndraws[i] = uniforms lane i
 * consumed (callers advance cursors by this); uscratch is caller-provided
 * workspace of n*levels doubles.  Returns the number of firing cells.
 */
long repro_philox_idle(const uint64_t *episodes, const uint64_t *cursors,
                       uint64_t *ndraws, const int64_t *counts,
                       const double *lam, const double *term, int64_t *idle,
                       double *uscratch, uint64_t key0, uint64_t key1,
                       long n, long levels) {
    uint32_t kr0[PHILOX_ROUNDS], kr1[PHILOX_ROUNDS];
    philox_round_keys(key0, key1, kr0, kr1);
    long fired = 0;
    double max_lam = 0.0;
    for (long i = 0; i < n; i++) {
        uint64_t rank = 0;
        for (long v = 0; v < levels; v++) {
            long cell = i * levels + v;
            idle[cell] = 0;
            uscratch[cell] = -1.0; /* sentinel: cell did not fire */
            if (counts[cell] > 1) {
                double u =
                    philox_uniform(episodes[i], cursors[i] + rank, kr0, kr1);
                rank++;
                if (u >= term[cell]) {
                    uscratch[cell] = u;
                    fired++;
                    if (lam[cell] > max_lam) {
                        max_lam = lam[cell];
                    }
                }
            }
        }
        ndraws[i] = rank;
    }
    if (fired == 0) {
        return 0;
    }
    /* Same global cap as _poisson_from_uniform: max lam over the firing
     * subset (sqrt is correctly rounded, the cast truncates — both match
     * Python's float arithmetic and int()). */
    long cap = (long)(max_lam + 10.0 * sqrt(max_lam) + 64.0);
    for (long cell = 0; cell < n * levels; cell++) {
        double u = uscratch[cell];
        if (u < 0.0) {
            continue;
        }
        double lam_c = lam[cell];
        double p = term[cell];
        double cdf = p;
        long k = 0;
        /* Transcription of `while u >= cdf: k += 1; p *= lam/k; cdf += p`
         * — per element the numpy loop runs this exact rounding
         * sequence, so k matches bitwise. */
        while (u >= cdf && k < cap) {
            k++;
            p *= lam_c / (double)k;
            cdf += p;
        }
        int64_t clamp = counts[cell] - 1;
        idle[cell] = (k < clamp) ? k : clamp;
    }
    return fired;
}
