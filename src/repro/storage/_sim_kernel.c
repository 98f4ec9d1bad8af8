/* One simulator interval for every active row of a VectorSimulatorState.
 *
 * repro_sim_pre applies the migration rule and injects the workload;
 * the caller then samples idle cores in Python (per-slot generators or
 * the Philox sampler); repro_sim_post dispatches (polling), accounts,
 * decays cooldowns, advances time and sets the done/truncated flags.
 * Both walk the rows that are not done before the step, in place, on the
 * state's own arrays, whose addresses the caller packs into sim_args at
 * every reset.
 *
 * BIT-EXACTNESS CONTRACT: every array must come out byte-equal to
 * vector_state.py's numpy migration and injection passes and its per-cell
 * reference dispatch loop (_process_intervals_reference), which stay the
 * specification.  All arithmetic is exactly-rounded IEEE double in the
 * numpy order:
 *
 *   - injection computes the same products and sums, operand for operand;
 *   - min/max follow numpy's scalar form (in1 <= in2 ? in1 : in2);
 *   - a level's totals are summed in numpy's pairwise order for rows
 *     under 16 elements: left to right from 0.0 below 8 elements, else
 *     eight accumulators, the balanced tree, then a sequential tail
 *     (dispatcher.pairwise_sum_ragged is the executable specification).
 *
 * The build disables FP contraction and uses no unsafe-math flag (an FMA
 * or a reassociation changes roundings), and the loader steps a seeded
 * batch through both paths before trusting the library: any difference
 * leaves numpy in charge.
 */

#include <stdint.h>

#define NUM_LEVELS 3
#define MAX_WIDTH 15 /* widest level; vector_state packs no wider state */

typedef struct {
    int64_t *pos_ids;          /* (B, 3, width) */
    int64_t *pos_cooldown;     /* (B, 3, width) */
    int64_t *counts;           /* (B, 3) */
    int64_t *idle;             /* (B, 3) */
    double *backlog;           /* (B, 3) */
    double *incoming;          /* (B, 3) */
    double *processed;         /* (B, 3) */
    double *capacity;          /* (B, 3) */
    double *utilization;       /* (B, 3) */
    int64_t *interval_index;   /* (B,) also the makespan counter */
    const int64_t *trace_len;  /* (B,) */
    const int64_t *max_intervals; /* (B,) */
    uint8_t *done;             /* (B,) bool */
    uint8_t *truncated;        /* (B,) bool */
    uint8_t *migration_applied; /* (B,) bool, written when recording */
    const double *read_kb;     /* (B, t_max) */
    const double *write_kb;    /* (B, t_max) */
    const int64_t *action_src; /* (num_actions,) -1 for the no-op */
    const int64_t *action_dst;
    int64_t batch, width, t_max, num_actions;
    int64_t min_cores, cooldown_window, id_sentinel, num_cores, record;
    double capability, penalized_capability, cache_miss_rate, drain_epsilon;
    double kv_write_factor, kv_read_miss_factor;
    double rv_write_factor, rv_read_miss_factor;
} sim_args;

/* numpy's sum of values[0..n-1], n <= 15. */
static double pairwise_sum(const double *values, int64_t n) {
    if (n < 8) {
        double total = 0.0;
        for (int64_t j = 0; j < n; j++) total += values[j];
        return total;
    }
    double total = ((values[0] + values[1]) + (values[2] + values[3]))
                 + ((values[4] + values[5]) + (values[6] + values[7]));
    for (int64_t j = 8; j < n; j++) total += values[j];
    return total;
}

/* Returns the number of active rows, or -1 (nothing written) when an
 * action is outside [0, num_actions). */
long repro_sim_pre(const sim_args *a, const int64_t *actions) {
    for (int64_t r = 0; r < a->batch; r++)
        if (actions[r] < 0 || actions[r] >= a->num_actions) return -1;
    const int64_t w = a->width;
    long active = 0;
    for (int64_t r = 0; r < a->batch; r++) {
        if (a->done[r]) continue;
        active++;
        int64_t *counts = a->counts + r * NUM_LEVELS;
        if (a->record) a->migration_applied[r] = 0;
        int64_t act = actions[r];
        if (act != 0 && counts[a->action_src[act]] > a->min_cores) {
            int64_t src = a->action_src[act], dst = a->action_dst[act];
            int64_t *ids = a->pos_ids + (r * NUM_LEVELS + src) * w;
            int64_t *cds = a->pos_cooldown + (r * NUM_LEVELS + src) * w;
            int64_t n = counts[src];
            /* Lowest-id unpenalised core, else the lowest-id penalised. */
            int64_t p = 0, best = ids[0] + a->num_cores * (cds[0] > 0);
            for (int64_t j = 1; j < n; j++) {
                int64_t key = ids[j] + a->num_cores * (cds[j] > 0);
                if (key < best) { best = key; p = j; }
            }
            int64_t chosen = ids[p], cooldown = cds[p];
            for (int64_t j = p; j < n - 1; j++) {
                ids[j] = ids[j + 1];
                cds[j] = cds[j + 1];
            }
            ids[n - 1] = a->id_sentinel;
            cds[n - 1] = 0;
            /* Insert id-sorted into the destination row. */
            ids = a->pos_ids + (r * NUM_LEVELS + dst) * w;
            cds = a->pos_cooldown + (r * NUM_LEVELS + dst) * w;
            int64_t m = counts[dst], q = 0;
            while (q < m && ids[q] < chosen) q++;
            for (int64_t j = m; j > q; j--) {
                ids[j] = ids[j - 1];
                cds[j] = cds[j - 1];
            }
            ids[q] = chosen;
            cds[q] = cooldown > a->cooldown_window + 1 ? cooldown : a->cooldown_window + 1;
            counts[src] = n - 1;
            counts[dst] = m + 1;
            if (a->record) a->migration_applied[r] = 1;
        }
        double *incoming = a->incoming + r * NUM_LEVELS;
        int64_t t = a->interval_index[r];
        if (t < a->trace_len[r]) {
            double read_kb = a->read_kb[r * a->t_max + t];
            double write_kb = a->write_kb[r * a->t_max + t];
            double missed = read_kb * a->cache_miss_rate;
            incoming[0] = read_kb + write_kb;
            incoming[1] = write_kb * a->kv_write_factor + missed * a->kv_read_miss_factor;
            incoming[2] = write_kb * a->rv_write_factor + missed * a->rv_read_miss_factor;
            double *backlog = a->backlog + r * NUM_LEVELS;
            for (int l = 0; l < NUM_LEVELS; l++) backlog[l] += incoming[l];
        } else {
            for (int l = 0; l < NUM_LEVELS; l++) incoming[l] = 0.0;
        }
    }
    return active;
}

/* Returns the number of rows truncated by this step, or -1 (nothing
 * written) when an active row has an empty level. */
long repro_sim_post(const sim_args *a) {
    const int64_t w = a->width;
    for (int64_t r = 0; r < a->batch; r++) {
        if (a->done[r]) continue;
        for (int l = 0; l < NUM_LEVELS; l++)
            if (a->counts[r * NUM_LEVELS + l] == 0) return -1;
    }
    double caps[MAX_WIDTH], work[MAX_WIDTH];
    long truncated = 0;
    for (int64_t r = 0; r < a->batch; r++) {
        if (a->done[r]) continue;
        int64_t *cooldowns = a->pos_cooldown + r * NUM_LEVELS * w;
        int drained = 1;
        for (int l = 0; l < NUM_LEVELS; l++) {
            int64_t c = r * NUM_LEVELS + l, n = a->counts[c], idle = a->idle[c];
            const int64_t *cds = cooldowns + l * w;
            for (int64_t j = 0; j < n; j++)
                caps[j] = cds[j] > 0 ? a->penalized_capability : a->capability;
            /* Idle ranking: highest capacity first, lowest id among equals
             * (numpy's stable argsort of -caps): the full-speed cores in
             * id order, then the penalised ones. */
            for (int pass = 0; pass < 2 && idle > 0; pass++)
                for (int64_t j = 0; j < n && idle > 0; j++)
                    if ((cds[j] > 0 && a->penalized_capability != a->capability) == pass) {
                        caps[j] = 0.0;
                        idle--;
                    }
            double pending = a->backlog[c];
            double share = pending / (double)n;
            for (int64_t j = 0; j < n; j++) work[j] = share <= caps[j] ? share : caps[j];
            double done_kb = pairwise_sum(work, n);
            double total = pairwise_sum(caps, n);
            double u = done_kb / total;
            double left = pending - done_kb;
            a->processed[c] = done_kb;
            a->capacity[c] = total;
            a->utilization[c] = 1.0 <= u ? 1.0 : u;
            a->backlog[c] = 0.0 >= left ? 0.0 : left;
            drained &= a->backlog[c] <= a->drain_epsilon;
        }
        for (int64_t j = 0; j < NUM_LEVELS * w; j++) cooldowns[j] -= cooldowns[j] > 0;
        int64_t t = ++a->interval_index[r];
        int finished = t >= a->trace_len[r] && drained;
        int cut = !finished && t >= a->max_intervals[r];
        if (cut) {
            a->truncated[r] = 1;
            truncated++;
        }
        a->done[r] = (uint8_t)(finished || cut);
    }
    return truncated;
}
