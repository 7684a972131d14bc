/* The hot loops of assocsort.kernels, in C.
 *
 * kernels.py is the specification.  Each function here takes the
 * arguments of the Python kernel of the same name and gives the same
 * results, the same words and the same STATUS_* and PHASE_* codes, so
 * both backends write the same words and report the same counters.  A
 * kernel with a skip path is an inline <name>_k, which the pass loops call,
 * and an exported <name> that calls it; practice_k and retrieve_scan_k
 * serve every node form (F, b) of kernels.practice alike: count nodes
 * (F == 1), bitmaps of F keys (b == 1) and F packed counters of b bits,
 * and retrieve_packed_k the count and packed memories of the counting
 * sorters.  practice_k is also the rank pass's practice, carrying the
 * payloads where it is handed them (kernels.practice's P, which the
 * exported practice takes too), so there is one counting practice for
 * keys and for (key, payload) pairs.  reactivate_k is the rank pass's
 * reactivation, as the Python kernel's interleaved chains, with an
 * instance of its own for a pass that defers nothing.
 * improved_passes packs the count nodes of every pass where two fields
 * fit, sequential_passes and stacked_passes those of a pass whose keys a
 * count pass would defer, by the one rule of pass_interval; a sparse pass
 * of improved_passes takes narrow fields, which may fill up (see
 * narrow_interval and narrow_pass), and unpractice_k undoes the nodes
 * past the first full one.  Five things exist only here, and change no
 * result:
 * * Skip paths.  Where a scan of a value-sort pass loop would only step
 *   past word after word (keys practice defers or, in stacked_passes,
 *   leaves below the interval, untagged words, value planes above the
 *   pivot or at or below it, words off their own slot), it steps over
 *   blocks of 4 such words at a time and returns the exact word the scan
 *   must stop at.  The standalone kernels and the pass loops take them in
 *   every pass, each scan compiled once per loop instance, but for
 *   distinct_passes, which turns them on per pass (see distinct_loop).  A
 *   pass of improved_passes that defers no key walks its idle tail with the
 *   left-hand scan of partition_values, every other pass with the
 *   right-hand one.
 * * Vector lane masks.  A skip path tests the 4 words of a block as one
 *   vector and finds its stop word from the mask of the lanes that fail
 *   (see lanes()).
 * * Each pass loop is compiled twice from one body: once with the byte
 *   stride fixed at 8, which every contiguous array has, and no hook, for
 *   an untraced sort of such arrays, and once for any stride and a hook,
 *   for every other sort (see UNTRACED).
 * * Masks for branches.  In a pass of improved_passes that defers no key,
 *   retrieval writes a packed node's keys by mask at node level: it sums
 *   the node's fields and picks the key of each word of a window of 8 by
 *   comparing the word's place against the running sums (see
 *   retrieve_dense).  In a dense-last pass of count nodes (see
 *   kernels.dense_last) where a third of the keys or more repeat,
 *   storage and retrieval pick their writes by mask likewise.  A word
 *   outside the node's run, or one storage does not move, is written back
 *   unchanged, where the Python kernel leaves it.  The cursors of
 *   practice_cursors pick what they write to the slot they hash to by mask
 *   too, and the chains of reactivate the destination and the word they
 *   write, and their scan steps over final words 4 at a time (see
 *   skip_final).
 * * A walk over set bits.  Bitmap retrieval visits only the bits a record
 *   holds, not all F of them, and writes a node's keys lowest first, and
 *   packed retrieval only the fields that hold a count (see
 *   retrieve_scan_k).
 * Kernels never fail loudly; a broken invariant comes back as a negative
 * status for the driver to raise on.
 *
 * Calling convention
 * ------------------
 * * An array argument is a base address and its stride in bytes (``S``
 *   and ``S_s``), so strided and unaligned 1-D int64 views work as they
 *   do on the Python backend; a payload (of practice or partition_values)
 *   is NULL, 0 where the Python kernel's P is None.
 * * The Python kernel's result tuple is written to ``out``, element by
 *   element; kernels whose Python twin returns one integer return it.
 * * A pass loop takes its hook ``emit`` just before ``out``: NULL for an
 *   untraced sort, else a function it calls as emit(step, pass) after each
 *   phase's check passed, where the Python loop calls its own; a nonzero
 *   return stops the loop there, as a raising hook stops the Python one.
 *   A traced sort thus runs the same loop as an untraced one, skip paths,
 *   cursors and masks included; only the hook's calls are added.
 * * Arithmetic stays inside int64: the word model caps w at 63, so keys,
 *   tagged words and counts never reach the host sign bit.
 */

#include <stddef.h>
#include <stdint.h>

#define STATUS_OK 0
#define STATUS_OVERFULL -1
#define STATUS_NO_IDLE -2
#define STATUS_COLLISION -3
#define STATUS_TAG_SCAN -4
#define STATUS_BAD_HASH -5
#define STATUS_BAD_PREFIX -6
#define STATUS_CURSOR -7
#define STATUS_BAD_SLOT -8

#define PHASE_OK 0
#define PHASE_DUPLICATE 1
#define PHASE_STORE 2
#define PHASE_PARTITION 3
#define PHASE_RETRIEVE 4
#define PHASE_PREFIX 5
#define PHASE_UNWIND 6
#define PHASE_ACCUMULATE 7
#define PHASE_TICKET 8
#define PHASE_REACTIVATE 9
#define PHASE_RESTORE 10

/* The phases a pass loop hands its hook, as kernels.STEPS names them. */
enum step {
    STEP_PRACTICE,
    STEP_STORE,
    STEP_PARTITION,
    STEP_RETRIEVE,
    STEP_ACCUMULATE,
    STEP_REPRACTICE,
    STEP_REACTIVATE,
    STEP_RESTORE,
};

/* A pass loop's argument before out: NULL, or the hook it calls as
 * emit(step, pass) after each phase's check passed.  A nonzero return
 * stops the loop there: EMIT leaves the loop it stands in. */
typedef int (*hook)(int64_t, int64_t);
#define EMIT(step, pass)                   \
    if (emit && emit((step), (pass)) != 0) \
        break;                             \
    else                                   \
        (void)0

typedef int64_t i64;
/* An int64 that may sit at any byte address. */
typedef int64_t word __attribute__((aligned(1)));

#define AT(A, i) (*(word *)((A) + (i) * A##_s))
/* Exchange words i and j of A. */
#define SWAP(A, i, j) do { i64 t_ = AT(A, i); AT(A, i) = AT(A, j); AT(A, j) = t_; } while (0)

/* Inlined into every caller, so that the stride-8 instance of a pass loop
 * sees its constant stride in every access. */
#define INLINE static inline __attribute__((always_inline))

/* The ten results of a pass loop: the counters, where the sorted prefix
 * ends, and the failed check with its status and numbers. */
static void loop_result(i64 *out, i64 passes, i64 moves, i64 created,
                        i64 head, i64 phase, i64 status, i64 a, i64 b, i64 c,
                        i64 d)
{
    i64 v[10] = {passes, moves, created, head, phase, status, a, b, c, d};
    for (int k = 0; k < 10; k++)
        out[k] = v[k];
}

void min_max(char *S, i64 S_s, i64 lo, i64 hi, i64 *out)
{
    i64 mn = AT(S, lo), mx = mn;
    for (i64 i = lo + 1; i < hi; i++) {
        i64 v = AT(S, i);
        if (v < mn)
            mn = v;
        if (v > mx)
            mx = v;
    }
    out[0] = mn;
    out[1] = mx;
}

/* The skip paths.  Each steps over whole blocks of 4 words that its scan
 * would only step past, one word at a time, and returns the exact first
 * word its scan must look at: the first such word of a block that holds
 * one, or where fewer than 4 words are left between the bounds.  The words
 * it steps over are folded in as the scan would fold them, so the scan
 * goes on from there with the same counts.
 *
 * A block is one vector of 4 lanes, and each test of its words one lane
 * mask, which lanes() turns into 4 bits, lane 0 lowest; ctz or clz of the
 * bits is the lane to stop at.  Only lanes() is spelled for the ISA:
 * vmovmskpd where the build targets AVX2 (ckernels adds -mavx2 on a CPU
 * that has it), a test of each lane's sign bit elsewhere.  No vector is
 * passed to or returned from a function, whose ABI would change with the
 * ISA.  The index of the next block never waits on a mask: with the stop
 * lane added to it in every block (4 where none stops), each block's load
 * waited on the last block's mask, and sorts of keys over 30n-100n took
 * 1.4-3.5 times as long as with paths that returned the first word of the
 * failing block.  Against those paths, time per call of each pass loop
 * over time with these, on keys over 30n and 100n, n = 5000 and 10^5
 * (scripts/paired_grid.py, two runs of 21 rounds; from m = n to 10n the
 * ratios read 0.94-1.16):
 *
 *     assoc_improved 1.26-1.38  assoc_seq 1.22-1.31  assoc_rec 1.13-1.27
 *     cycle_distinct 1.32-1.42
 */
typedef i64 v4 __attribute__((vector_size(32)));
typedef uint64_t u4 __attribute__((vector_size(32)));

#define SPLAT(x) ((v4){(x), (x), (x), (x)})
#define LANE ((v4){0, 1, 2, 3})

#ifdef __AVX2__
#include <immintrin.h>
#define lanes(m) _mm256_movemask_pd((__m256d)(m))
#else
#define lanes(m)                                                        \
    ((int)((uint64_t)(m)[0] >> 63 | (uint64_t)(m)[1] >> 63 << 1 |      \
           (uint64_t)(m)[2] >> 63 << 2 | (uint64_t)(m)[3] >> 63 << 3))
#endif

/* Words i to i + 3 of S into lanes 0 to 3 of *v. */
INLINE void load4(v4 *v, char *S, i64 S_s, i64 i)
{
    if (S_s == 8)
        __builtin_memcpy(v, S + i * 8, sizeof *v);
    else
        *v = (v4){AT(S, i), AT(S, i + 1), AT(S, i + 2), AT(S, i + 3)};
}

/* Lanes 0 to 3 of *v into words i to i + 3 of S. */
INLINE void store4(char *S, i64 S_s, i64 i, const v4 *v)
{
    if (S_s == 8)
        __builtin_memcpy(S + i * 8, v, sizeof *v);
    else
        for (int l = 0; l < 4; l++)
            AT(S, i + l) = (*v)[l];
}

/* Lane by lane, *least becomes x where *take is set and x is less. */
INLINE void fold_least(v4 *least, const v4 *x, const v4 *take)
{
    v4 less = *take & (*x < *least);
    *least = (*x & less) | (*least & ~less);
}

/* The least lane of *x. */
INLINE i64 least_lane(const v4 *x)
{
    i64 a = (*x)[0] < (*x)[1] ? (*x)[0] : (*x)[1];
    i64 b = (*x)[2] < (*x)[3] ? (*x)[2] : (*x)[3];
    return a < b ? a : b;
}

/* Up from i: untagged keys at or past far = delta + max(span, 0), which
 * practice defers, counted into *n_def and folded into *dnext.  The
 * caller passes far < 0 where delta < 0 or far overflows, and then no
 * word is skipped.  The least key is kept in a vector and folded in once,
 * on return, as in skip_outside. */
INLINE i64 skip_deferred(char *S, i64 S_s, i64 i, i64 hi, i64 far, i64 tag,
                         i64 *n_def, i64 *dnext)
{
    if (far < 0)
        return i;
    i64 from = i;
    v4 least = SPLAT(INT64_MAX), v;
    while (i + 4 <= hi) {
        load4(&v, S, S_s, i);
        v4 stop = (v < SPLAT(far)) | ((v & SPLAT(tag)) != 0);
        int m = lanes(stop);
        if (m) {
            v4 take = LANE < SPLAT(__builtin_ctz(m));
            fold_least(&least, &v, &take);
            i += __builtin_ctz(m);
            break;
        }
        v4 all = SPLAT(-1);
        fold_least(&least, &v, &all);
        i += 4;
    }
    i64 f = least_lane(&least);
    if (i > from && (*dnext < 0 || f < *dnext))
        *dnext = f;
    *n_def += i - from;
    return i;
}

/* The far of skip_deferred for an interval of span keys from delta. */
INLINE i64 deferred_from(i64 delta, i64 span)
{
    i64 far;
    if (delta < 0 || __builtin_add_overflow(delta, span > 0 ? span : 0, &far))
        return -1;
    return far;
}

/* Up from i: untagged keys outside [delta, far), which practice passes
 * below the interval or defers; the deferred ones (at or past far) are
 * counted into *n_def and folded into *dnext.  No word is skipped where
 * far < 0, as in skip_deferred, nor a negative one, so that 0 <= delta <=
 * far orders every skipped key against the interval. */
INLINE i64 skip_outside(char *S, i64 S_s, i64 i, i64 hi, i64 delta, i64 far,
                        i64 tag, i64 *n_def, i64 *dnext)
{
    if (far < 0)
        return i;
    /* The least deferred key and the count are folded in once, on return,
     * not in each block, whose dnext branch mispredicts where
     * below-interval and deferred keys mix.  stacked_passes of keys from a
     * pool of n/2 (scripts/paired_grid.py, 41 rounds in five runs and 201
     * in a sixth), time with a fold in each block of its four v - far over
     * time with a fold on return, both returning the first word of the
     * failing block:
     *
     *     n      m/n 1         3          10         30         100
     *     5000   0.96-1.00  0.98-1.00  1.00-1.03  1.13-1.21  1.34-1.37
     *     10^5   0.97-1.01  0.97-1.01  0.98-1.04  1.13-1.21  1.32-1.37
     */
    v4 least = SPLAT(INT64_MAX), count = SPLAT(0), v;
    while (i + 4 <= hi) {
        load4(&v, S, S_s, i);
        v4 deferred = v >= SPLAT(far);
        v4 stop = ((v & SPLAT(tag | INT64_MIN)) != 0) |
                  ((v >= SPLAT(delta)) & ~deferred);
        int m = lanes(stop);
        if (m) {
            deferred &= LANE < SPLAT(__builtin_ctz(m));
            fold_least(&least, &v, &deferred);
            count -= deferred;
            i += __builtin_ctz(m);
            break;
        }
        fold_least(&least, &v, &deferred);
        count -= deferred;
        i += 4;
    }
    i64 n = count[0] + count[1] + count[2] + count[3], f = least_lane(&least);
    if (n && (*dnext < 0 || f < *dnext))
        *dnext = f;
    *n_def += n;
    return i;
}

/* Up from l, not past r: value planes at or below pivot. */
INLINE i64 skip_at_most(char *S, i64 S_s, i64 l, i64 r, i64 pivot, i64 vmask)
{
    v4 v;
    while (l + 3 <= r) {
        load4(&v, S, S_s, l);
        v4 stop = (v & SPLAT(vmask)) > SPLAT(pivot);
        int m = lanes(stop);
        if (m)
            return l + __builtin_ctz(m);
        l += 4;
    }
    return l;
}

/* Up from p, below hi: untagged words. */
INLINE i64 skip_untagged_up(char *S, i64 S_s, i64 p, i64 hi, i64 tag)
{
    v4 v;
    while (p + 4 <= hi) {
        load4(&v, S, S_s, p);
        v4 stop = (v & SPLAT(tag)) != 0;
        int m = lanes(stop);
        if (m)
            return p + __builtin_ctz(m);
        p += 4;
    }
    return p;
}

/* The word of the highest lane set in the 4 bits m, m != 0, of the block
 * that starts at word i. */
INLINE i64 highest(i64 i, int m)
{
    return i + 31 - __builtin_clz((unsigned)m);
}

/* Down from p, not below lo: untagged words. */
INLINE i64 skip_untagged_down(char *S, i64 S_s, i64 p, i64 lo, i64 tag)
{
    v4 v;
    while (p - 3 >= lo) {
        load4(&v, S, S_s, p - 3);
        v4 stop = (v & SPLAT(tag)) != 0;
        int m = lanes(stop);
        if (m)
            return highest(p - 3, m);
        p -= 4;
    }
    return p;
}

/* Down from r, not below l: value planes above pivot. */
INLINE i64 skip_above(char *S, i64 S_s, i64 r, i64 l, i64 pivot, i64 vmask)
{
    v4 v;
    while (r - 3 >= l) {
        load4(&v, S, S_s, r - 3);
        v4 stop = (v & SPLAT(vmask)) <= SPLAT(pivot);
        int m = lanes(stop);
        if (m)
            return highest(r - 3, m);
        r -= 4;
    }
    return r;
}

/* Up from i, below hi: words off their own slot, where word i is settled
 * when it holds key delta + (i - lo). */
INLINE i64 skip_unsettled(char *S, i64 S_s, i64 i, i64 hi, i64 lo, i64 delta)
{
    uint64_t at = (uint64_t)delta - (uint64_t)lo + (uint64_t)i;
    u4 settled = (u4){at, at + 1, at + 2, at + 3};
    v4 v;
    while (i + 4 <= hi) {
        load4(&v, S, S_s, i);
        v4 stop = (u4)v == settled;
        int m = lanes(stop);
        if (m)
            return i + __builtin_ctz(m);
        i += 4;
        settled += 4;
    }
    return i;
}

/* Up from i, below hi: words final in reactivate_k, a node other than a
 * hole, or a ticket at its own slot, word i's slot being i - lo. */
INLINE i64 skip_final(char *S, i64 S_s, i64 i, i64 hi, i64 lo, i64 tag,
                      i64 hole)
{
    uint64_t at = (uint64_t)i - (uint64_t)lo;
    u4 slot = (u4){at, at + 1, at + 2, at + 3};
    v4 v;
    while (i + 4 <= hi) {
        load4(&v, S, S_s, i);
        v4 stop = ((u4)v != slot) &
                  (((v & SPLAT(tag)) == 0) | (v == SPLAT(hole)));
        int m = lanes(stop);
        if (m)
            return i + __builtin_ctz(m);
        i += 4;
        slot += 4;
    }
    return i;
}

/* Each pass loop is compiled twice.  An untraced sort whose arrays all
 * have byte stride 8, as every contiguous array has, runs it in
 * <loop>_untraced: a function of its own, with the stride a constant 8,
 * that takes no hook and calls nothing.  The constant stride is worth it:
 * with the any-stride instance alone, improved_passes sorts of keys over
 * 10n-100n took 11-16% longer, and assoc_seq, assoc_rec and cycle_distinct
 * sorts over 30n-100n 11-19%.  So is the leaf: with the hook's call in the
 * function, distinct_improved sorts over 30n took 1.08-1.15 times as long.
 * Every other sort, traced or of a strided view, runs the exported loop's
 * own instance, for any stride, which an untraced sort hands a NULL hook.
 * Hidden, not static: GCC then emits the functions in the order of this
 * file, where static ones went first. */
#define UNTRACED __attribute__((noinline, visibility("hidden")))

/* implicit_practice, taking the deferred-key skip path when skip is set. */
INLINE void implicit_practice_k(char *S, i64 S_s, i64 lo, i64 hi, i64 delta,
                                int skip, i64 *out)
{
    i64 n = hi - lo, n_d = 0, dnext = -1, moves = 0, status = STATUS_OK;
    i64 far = deferred_from(delta, n), n_far = 0; /* not reported */
    i64 i = lo;
    while (i < hi) {
        i64 v = AT(S, i);
        i64 d = v - delta;
        if (d < 0 || d >= n) {
            if (dnext < 0 || v < dnext)
                dnext = v;
            i++;
            if (skip)
                i = skip_deferred(S, S_s, i, hi, far, 0, &n_far, &dnext);
        } else if (d == i - lo) {
            n_d++;
            i++;
        } else {
            if (moves > 2 * n) {
                status = STATUS_CURSOR;
                break;
            }
            i64 j = lo + d;
            AT(S, i) = AT(S, j);
            AT(S, j) = v;
            moves += 2;
            if (j < i)
                n_d++;
        }
    }
    out[0] = n_d;
    out[1] = dnext;
    out[2] = moves;
    out[3] = status;
}

void implicit_practice(char *S, i64 S_s, i64 lo, i64 hi, i64 delta, i64 *out)
{
    implicit_practice_k(S, S_s, lo, hi, delta, 1, out);
}

/* collect_fixpoints, stepping over words off their own slot when skip is
 * set. */
INLINE void collect_fixpoints_k(char *S, i64 S_s, i64 lo, i64 hi, i64 delta,
                                int skip, i64 *out)
{
    i64 wr = lo, moves = 0;
    for (i64 i = lo; i < hi; i++) {
        if (AT(S, i) - delta == i - lo) {
            if (wr != i) {
                i64 t = AT(S, wr);
                AT(S, wr) = AT(S, i);
                AT(S, i) = t;
                moves += 2;
            }
            wr++;
        } else if (skip) {
            i = skip_unsettled(S, S_s, i + 1, hi, lo, delta) - 1;
        }
    }
    out[0] = wr - lo;
    out[1] = moves;
}

void collect_fixpoints(char *S, i64 S_s, i64 lo, i64 hi, i64 delta, i64 *out)
{
    collect_fixpoints_k(S, S_s, lo, hi, delta, 1, out);
}

/* Every pass of a cycle-leader sort in one call: the steps above, in a
 * loop, with the checks of kernels.distinct_passes between them.
 * Inlined into distinct_untraced, with S_s fixed at 8, and into
 * distinct_passes.
 *
 * Unlike the other loops, this one takes the skip paths only in a pass
 * after one that placed at most 1/16 of its segment (the collection of
 * that same pass takes them too), and runs each scan in a copy with them
 * and one without.  Below that share runs are short and a failed block
 * costs more than the blocks save, and at m = n, where collection never
 * skips, the copy with the skip path still runs slower.  With the skip
 * paths in every pass, cycle_distinct sorts at n = 5000 and 10^5
 * (scripts/paired_grid.py, 41 rounds) took 1.12-1.16 times as long at
 * m = n, at 10n and on permutations, 0.94 at 3n, and as long at 30n-100n. */
INLINE void distinct_loop(char *S, i64 S_s, i64 head, i64 hi, i64 delta,
                          hook emit, i64 *out)
{
    i64 passes = 0, moves = 0;
    i64 phase = PHASE_OK, status = STATUS_OK, a = 0, b = 0;
    i64 r[4];
    int skip = 0;
    while (head < hi) {
        passes++;
        i64 seg = hi - head;
        if (skip)
            implicit_practice_k(S, S_s, head, hi, delta, 1, r);
        else
            implicit_practice_k(S, S_s, head, hi, delta, 0, r);
        i64 n_d = r[0], dnext = r[1];
        if (r[3] != STATUS_OK) {
            phase = PHASE_DUPLICATE;
            status = r[3];
            break;
        }
        skip = n_d <= seg / 16;
        moves += r[2];
        EMIT(STEP_PRACTICE, passes);
        if (skip)
            collect_fixpoints_k(S, S_s, head, hi, delta, 1, r);
        else
            collect_fixpoints_k(S, S_s, head, hi, delta, 0, r);
        moves += r[1];
        if (r[0] != n_d) {
            phase = PHASE_PARTITION;
            a = r[0];
            b = n_d;
            break;
        }
        EMIT(STEP_PARTITION, passes);
        head += n_d;
        if (head != hi && (dnext < 0 || n_d == 0)) {
            phase = PHASE_PREFIX;
            a = head;
            b = hi;
            break;
        }
        delta = dnext;
    }
    loop_result(out, passes, moves, 0, head, phase, status, a, b, 0, 0);
}

UNTRACED void distinct_untraced(char *S, i64 head, i64 hi, i64 delta,
                                i64 *out)
{
    distinct_loop(S, 8, head, hi, delta, NULL, out);
}

/* The skip paths of partition_values_k: its right-hand scan and its
 * left-hand one. */
#define SKIP_HIGH 1
#define SKIP_LOW 2

/* practice, of nodes of the form (F, b): count nodes (F == 1), bitmaps
 * (b == 1) or packed counters, taking a skip path over deferred keys, or,
 * where outside is set, over untagged keys on either side of the interval.
 * Every count-form call passes F as a literal 1, so that its loop has no
 * field code.  A field shift is below F * b.  Where narrow is set, the
 * packed fields may fill up (kernels.practice's narrow fields): a node
 * records the field that made it above its fields, and a key that finds
 * its field full is deferred, the interval ending before its node from
 * then on; out[6] is then the last such key.  Only narrow_pass_k sets it
 * as a literal, so that no loop's other instances have its code; the
 * exported practice passes what it is handed.  P is NULL, or the payloads
 * of a rank pass (kernels.practice's P): where a node is made, its slot's
 * payload swaps with the scan position's, 3 moves in all.  A pass loop's
 * value call passes a literal NULL, so that its instance has no payload
 * code; the exported practice passes what it is handed.  A
 * payload-carrying call takes no deferred-key skip path: with it, rank
 * sorts of keys over 3n-10n took 1.02-1.11 times as long, though over
 * 30n-100n 0.87-0.94 (scripts/paired_grid.py, two runs of 61 and 101
 * rounds). */
INLINE void practice_k(char *S, i64 S_s, char *P, i64 P_s, i64 lo, i64 hi,
                       i64 delta, i64 base, i64 span, i64 F, i64 b, i64 tag,
                       int outside, int narrow, i64 *out)
{
    i64 n_d = 0, n_c = 0, n_def = 0, dnext = -1, moves = 0, created = 0;
    i64 full = -1, far = deferred_from(delta, span);
    i64 i = lo;
    while (i < hi) {
        i64 v = AT(S, i);
        if (v & tag) {
            i++;
            continue;
        }
        i64 d = v - delta;
        if (d < 0) {
            i++;
            if (outside)
                i = skip_outside(S, S_s, i, hi, delta, far, tag, &n_def,
                                 &dnext);
            continue;
        }
        if (d >= span) {
            n_def++;
            if (dnext < 0 || v < dnext)
                dnext = v;
            i++;
            if (outside)
                i = skip_outside(S, S_s, i, hi, delta, far, tag, &n_def,
                                 &dnext);
            else if (!P)
                i = skip_deferred(S, S_s, i, hi, far, tag, &n_def, &dnext);
            continue;
        }
        i64 j = lo + base + d / F, one = (i64)1 << (d % F * b);
        i64 t = AT(S, j);
        if (t & tag) {
            if (F != 1 && b == 1 && (t & one)) {
                full = v;
                break;
            }
            /* The skip path keeps its far: the keys it folds in lie past
             * the lowered interval too. */
            uint64_t cap = ((uint64_t)1 << b) - 1;
            if (narrow && ((uint64_t)t >> (d % F * b) & cap) == cap) {
                n_def++;
                if (dnext < 0 || v < dnext)
                    dnext = v;
                span = d - d % F;
                full = v;
                i++;
                continue;
            }
            AT(S, j) = (i64)((uint64_t)t + (uint64_t)one);
            n_c++;
            i++;
        } else {
            AT(S, i) = t;
            AT(S, j) = tag | (F != 1 ? one : 0) |
                       (narrow ? (i64)((uint64_t)(d % F) << (F * b)) : 0);
            moves++;
            if (P) {
                SWAP(P, i, j);
                moves += 2;
            }
            created++;
            n_d++;
            if (j < i)
                i++;
        }
    }
    out[0] = n_d;
    out[1] = n_c;
    out[2] = n_def;
    out[3] = dnext;
    out[4] = moves;
    out[5] = created;
    out[6] = full;
}

/* The bit length of x >= 0, as Python's int.bit_length: 0 for 0. */
INLINE i64 bit_length(i64 x)
{
    return x ? 64 - __builtin_clzll((uint64_t)x) : 0;
}

void practice(char *S, i64 S_s, i64 lo, i64 hi, i64 delta, i64 base, i64 span,
              i64 F, i64 b, i64 tag, char *P, i64 P_s, i64 narrow, i64 *out)
{
    practice_k(S, S_s, P, P_s, lo, hi, delta, base, span, F, b, tag, 0,
               narrow != 0, out);
}

/* kernels.unpractice: each node at or above slot lo + base + span / F, of
 * narrow fields, back into the key that made it, with the practice's
 * n_d, n_c and dnext corrected; the scan for nodes takes the
 * untagged-word skip path. */
INLINE void unpractice_k(char *S, i64 S_s, i64 lo, i64 hi, i64 delta, i64 base,
                         i64 span, i64 F, i64 b, i64 tag, i64 n_d, i64 n_c,
                         i64 dnext, i64 *out)
{
    i64 vmask = tag - 1, moves = 0;
    uint64_t field = ((uint64_t)1 << b) - 1;
    for (i64 j = lo + base + span / F; j < hi; j++) {
        if (!(AT(S, j) & tag)) {
            j = skip_untagged_up(S, S_s, j + 1, hi, tag) - 1;
            continue;
        }
        uint64_t rec = (uint64_t)(AT(S, j) & vmask);
        i64 key0 = delta + (j - lo - base) * F, maker = (i64)(rec >> (F * b));
        i64 total = 0, least = maker;
        for (i64 f = F - 1; f >= 0; f--) {
            i64 c = (i64)(rec >> (f * b) & field);
            total += c;
            if (c)
                least = f;
        }
        if (maker < least)
            least = maker;
        AT(S, j) = key0 + maker;
        moves++;
        n_d--;
        n_c -= total - 1;
        if (dnext < 0 || key0 + least < dnext)
            dnext = key0 + least;
    }
    out[0] = n_d;
    out[1] = n_c;
    out[2] = dnext;
    out[3] = moves;
}

void unpractice(char *S, i64 S_s, i64 lo, i64 hi, i64 delta, i64 base,
                i64 span, i64 F, i64 b, i64 tag, i64 n_d, i64 n_c, i64 dnext,
                i64 *out)
{
    unpractice_k(S, S_s, lo, hi, delta, base, span, F, b, tag, n_d, n_c, dnext,
                 out);
}

/* store_nodes, taking the untagged-word skip path. */
INLINE void store_nodes_k(char *S, i64 S_s, i64 lo, i64 hi, i64 delta,
                          i64 span, i64 pack_split, i64 tag, i64 eps_budget,
                          i64 *out)
{
    i64 thr = (i64)1 << pack_split;
    i64 vmask = tag - 1;
    i64 wr = lo, eps_used = 0, moves = 0, status = STATUS_OK;
    for (i64 i = lo; i < hi; i++) {
        i64 x = AT(S, i);
        if (!(x & tag)) {
            i = skip_untagged_up(S, S_s, i + 1, hi, tag) - 1;
            continue;
        }
        i64 cnt = x & vmask;
        i64 fp = i - lo;
        if (cnt < thr) {
            i64 packed = tag | (fp << pack_split) | cnt;
            if (wr != i) {
                AT(S, i) = AT(S, wr);
                moves++;
            }
            AT(S, wr) = packed;
            moves++;
            wr++;
            continue;
        }
        eps_used++;
        if (eps_used > eps_budget || wr >= i) {
            status = STATUS_OVERFULL;
            break;
        }
        /* Find an idle word to sacrifice for the companion slot. */
        i64 q = wr;
        while (q < hi) {
            i64 y = AT(S, q);
            if (!(y & tag)) {
                i64 dq = y - delta;
                if (0 <= dq && dq < span)
                    break;
            }
            q++;
        }
        if (q == hi) {
            status = STATUS_NO_IDLE;
            break;
        }
        i64 node = tag | cnt;
        if (q == wr) {
            if (wr + 1 == i) {
                AT(S, wr) = node;
                AT(S, i) = fp;
                moves += 2;
            } else {
                AT(S, i) = AT(S, wr + 1);
                AT(S, wr) = node;
                AT(S, wr + 1) = fp;
                moves += 3;
            }
        } else if (q == wr + 1) {
            AT(S, i) = AT(S, wr);
            AT(S, wr) = node;
            AT(S, wr + 1) = fp;
            moves += 3;
        } else if (wr + 1 == i) {
            AT(S, q) = AT(S, wr);
            AT(S, wr) = node;
            AT(S, i) = fp;
            moves += 3;
        } else {
            AT(S, q) = AT(S, wr + 1);
            AT(S, i) = AT(S, wr);
            AT(S, wr) = node;
            AT(S, wr + 1) = fp;
            moves += 4;
        }
        wr += 2;
    }
    out[0] = eps_used;
    out[1] = wr - lo;
    out[2] = moves;
    out[3] = status;
}

void store_nodes(char *S, i64 S_s, i64 lo, i64 hi, i64 delta, i64 span,
                 i64 pack_split, i64 tag, i64 eps_budget, i64 *out)
{
    store_nodes_k(S, S_s, lo, hi, delta, span, pack_split, tag, eps_budget,
                  out);
}

/* partition_values, taking the skip path of its right-hand scan where
 * skip has bit SKIP_HIGH, of its left-hand one where it has SKIP_LOW.  P
 * is NULL or payloads that swap alongside; a pass loop passes a literal
 * NULL, so that its instance has no payload code. */
INLINE void partition_values_k(char *S, i64 S_s, char *P, i64 P_s, i64 lo,
                               i64 hi, i64 pivot, i64 tag, int skip, i64 *out)
{
    i64 vmask = tag - 1;
    i64 l = lo, r = hi - 1, moves = 0;
    while (l <= r) {
        i64 a = AT(S, l) & vmask;
        if (a <= pivot) {
            l++;
            if (skip & SKIP_LOW)
                l = skip_at_most(S, S_s, l, r, pivot, vmask);
            continue;
        }
        i64 b = AT(S, r) & vmask;
        if (b > pivot) {
            r--;
            if (skip & SKIP_HIGH)
                r = skip_above(S, S_s, r, l, pivot, vmask);
            continue;
        }
        AT(S, l) = (AT(S, l) & tag) | b;
        AT(S, r) = (AT(S, r) & tag) | a;
        moves += 2;
        if (P) {
            SWAP(P, l, r);
            moves += 2;
        }
        l++;
        r--;
    }
    out[0] = l - lo;
    out[1] = moves;
}

void partition_values(char *S, i64 S_s, i64 lo, i64 hi, i64 pivot, i64 tag,
                      char *P, i64 P_s, i64 *out)
{
    partition_values_k(S, S_s, P, P_s, lo, hi, pivot, tag, SKIP_HIGH | SKIP_LOW, out);
}

/* The keys of the packed fields rest, of b bits each, from key key0:
 * highest field first, empty ones skipped (the highest set bit names the
 * next field that holds a count), key key0 + f written as many times as
 * field f counts, down from *o, each write keeping the bits keep of the
 * word it overwrites.  Returns 0, having written down to stop, where the
 * writes would pass below stop, else 1. */
INLINE int write_fields(char *S, i64 S_s, uint64_t rest, i64 b, i64 key0,
                        i64 *o, i64 stop, i64 keep, i64 *moves)
{
    while (rest) {
        i64 f = (63 - __builtin_clzll(rest)) / b;
        uint64_t c = rest >> (f * b);
        rest &= ((uint64_t)1 << (f * b)) - 1;
        for (; c; c--) {
            if (*o < stop)
                return 0;
            AT(S, *o) = (AT(S, *o) & keep) | (key0 + f);
            (*o)--;
            (*moves)++;
        }
    }
    return 1;
}

/* retrieve_packed, of records of the form (F, b): counts (F == 1), whose
 * key is written count + 1 times, or F packed counters of b bits, which
 * write_fields walks.  retrieve_form passes a count form's F as a literal
 * 1, so that its loop has no field code. */
INLINE void retrieve_packed_k(char *S, i64 S_s, i64 lo, i64 mem_hi,
                              i64 write_end, i64 delta, i64 base, i64 F, i64 b,
                              i64 tag, i64 *out)
{
    i64 vmask = tag - 1, split = F * b;
    i64 cmask = (i64)(((uint64_t)1 << split) - 1);
    i64 r = mem_hi - 1, o = write_end - 1, moves = 0;
    out[0] = 0;
    while (r >= lo) {
        i64 x = AT(S, r), fp, cnt;
        if (x & tag) {
            i64 rec = x & vmask;
            fp = rec >> split;
            cnt = rec & cmask;
        } else {
            fp = x;
            r--;
            if (r < lo || !(AT(S, r) & tag)) {
                out[1] = moves;
                out[2] = STATUS_NO_IDLE;
                return;
            }
            cnt = AT(S, r) & vmask;
        }
        if (F == 1) {
            i64 key = delta + (fp - base);
            for (i64 c = 0; c <= cnt; c++) {
                if (o < r) {
                    out[1] = moves;
                    out[2] = STATUS_COLLISION;
                    return;
                }
                AT(S, o) = key;
                o--;
                moves++;
            }
        } else if (!write_fields(S, S_s, (uint64_t)cnt, b,
                                 delta + (fp - base) * F, &o, r, 0, &moves)) {
            out[1] = moves;
            out[2] = STATUS_COLLISION;
            return;
        }
        r--;
    }
    out[0] = (write_end - 1) - o;
    out[1] = moves;
    out[2] = STATUS_OK;
}

void retrieve_packed(char *S, i64 S_s, i64 lo, i64 mem_hi, i64 write_end,
                     i64 delta, i64 base, i64 F, i64 b, i64 tag, i64 *out)
{
    retrieve_packed_k(S, S_s, lo, mem_hi, write_end, delta, base, F, b, tag,
                      out);
}

/* retrieve_packed_k with one instance per node form, as the loops call
 * it. */
INLINE void retrieve_form(char *S, i64 S_s, i64 lo, i64 mem_hi,
                          i64 write_end, i64 delta, i64 base, i64 F, i64 b,
                          i64 tag, i64 *out)
{
    if (F == 1)
        retrieve_packed_k(S, S_s, lo, mem_hi, write_end, delta, base, 1, b,
                          tag, out);
    else
        retrieve_packed_k(S, S_s, lo, mem_hi, write_end, delta, base, F, b,
                          tag, out);
}

/* kernels.pass_budget: the companion budget eps and the pack split of a
 * counting pass over seg words; lg = ceil(log2 seg), at least 1. */
static void pass_budget(i64 seg, i64 w, i64 *eps, i64 *split)
{
    i64 lg = seg > 2 ? 64 - __builtin_clzll((uint64_t)(seg - 1)) : 1;
    *split = w - 1 - lg;
    *eps = 2 * lg >= w ? seg / (((i64)1 << *split) + 1) : 0;
}

/* kernels.pass_interval, the one packing rule of the three count sorters:
 * iv gets the node form F, b, the span and the pivot of a pass over seg
 * words from key delta whose keys are at most top, for a sort of nodes of
 * the form (F, b).  A count pass packs b / len >= 2 fields of len = bit
 * length of seg bits, the wide form: every such pass where its records
 * fill the value plane (1 << b == tag, the improved sorters), else only
 * one whose keys reach seg or more past delta.  improved_loop narrows the
 * fields of its count sorter's passes after (see narrow_interval). */
INLINE void pass_interval(i64 seg, i64 delta, i64 top, i64 F, i64 b, i64 tag,
                          i64 *iv)
{
    i64 len = 64 - __builtin_clzll((uint64_t)seg | 1), span = seg;
    if (F == 1 && seg > 0 && b / len >= 2 &&
        ((uint64_t)1 << b == (uint64_t)tag ||
         (top >= delta && (uint64_t)top - (uint64_t)delta >= (uint64_t)seg))) {
        F = b / len;
        b = len;
    }
    iv[0] = F;
    iv[1] = b;
    iv[2] = seg;
    iv[3] = delta + seg - 1;
    if (F == 1)
        return;
    if (__builtin_mul_overflow(F, seg, &span) || span > tag)
        span = tag;
    iv[2] = span;
    iv[3] = delta + span - 1 < tag - 1 ? delta + span - 1 : tag - 1;
}

/* kernels.SATURATION: a pass takes narrow fields only where it expects at
 * most 2^-SATURATION of them to fill up. */
#define SATURATION 6

/* kernels.narrow_fields: the most fields of b bits that fit vbits bits
 * beside the index of one of them. */
INLINE i64 narrow_fields(i64 b, i64 vbits)
{
    i64 F = vbits / b;
    while (F > 1 && F * b + bit_length(F - 1) > vbits)
        F--;
    return F;
}

/* x * y, or UINT64_MAX where that overflows, as kernels.narrow_bits
 * saturates. */
INLINE uint64_t sat_mul(uint64_t x, uint64_t y)
{
    uint64_t z;
    return __builtin_mul_overflow(x, y, &z) ? UINT64_MAX : z;
}

/* kernels.narrow_bits: the narrowest b from 2 up below the bit length of
 * seg whose narrow_fields exceed F and of which seg keys spread over
 * spread >= seg fill at most 2^-SATURATION, by F' seg 2^SATURATION <=
 * gap^k k!, k = 2^b, gap = spread / seg; 0 where there is none.  A check
 * stops once the right side reaches the left, so within 21 steps, by which
 * k! saturates. */
INLINE i64 narrow_bits(i64 seg, i64 spread, i64 F, i64 vbits)
{
    uint64_t gap = (uint64_t)spread / (uint64_t)seg;
    for (i64 b = 2; b < bit_length(seg); b++) {
        i64 Fb = narrow_fields(b, vbits);
        if (Fb <= F)
            return 0;
        uint64_t need = sat_mul(sat_mul(Fb, seg), (uint64_t)1 << SATURATION);
        uint64_t have = 1;
        for (uint64_t k = 1; k <= (uint64_t)1 << b && have < need; k++)
            have = sat_mul(sat_mul(have, gap), k);
        if (have >= need)
            return b;
    }
    return 0;
}

/* The narrow fields of kernels.pass_interval, for a pass of improved_loop's
 * count sorter (records of vbits = w - 1 bits) over seg > 0 words whose
 * wide form iv leaves top out: narrow_bits plus wider bits, as many fields
 * as fit, where that is more fields than iv's.  Out of line, as it runs
 * once a pass. */
__attribute__((noinline, visibility("hidden"))) void
narrow_interval(i64 seg, i64 delta, i64 top, i64 vbits, i64 tag, i64 wider,
                i64 *iv)
{
    if (top < delta || (uint64_t)top - (uint64_t)delta < (uint64_t)iv[2])
        return;
    i64 b = narrow_bits(seg, top - delta, iv[0], vbits), span;
    if (!b || b + wider >= bit_length(seg) ||
        narrow_fields(b + wider, vbits) <= iv[0])
        return;
    b += wider;
    iv[0] = narrow_fields(b, vbits);
    iv[1] = b;
    if (__builtin_mul_overflow(iv[0], seg, &span) || span > tag)
        span = tag;
    iv[2] = span;
    iv[3] = delta + span - 1 < tag - 1 ? delta + span - 1 : tag - 1;
}

/* kernels.practice_store: practice, then compact the nodes into memory,
 * in the node form of pass_interval over the seg - eps words the budget
 * leaves the interval.  A packed pass (F >= 2) has eps 0, so no field can
 * overflow and storage packs tag | fp << F * b | fields, making no
 * companion; a count pass is practiced with F a literal 1.  Practice steps
 * over keys on either side of the interval where outside is set, else
 * over deferred keys.  out: n_d, n_c, dnext, eps, eps_used, F, b, pivot,
 * stored, status, moves, created. */
INLINE void practice_store(char *S, i64 S_s, i64 head, i64 hi, i64 delta,
                           i64 top, i64 w, int outside, i64 *out)
{
    i64 tag = (i64)1 << (w - 1), seg = hi - head, eps, split, iv[4], p[7];
    i64 st[4];
    pass_budget(seg, w, &eps, &split);
    pass_interval(seg - eps, delta, top, 1, split, tag, iv);
    if (iv[0] == 1)
        practice_k(S, S_s, NULL, 0, head, hi, delta, eps, iv[2], 1, 1, tag,
                   outside, 0, p);
    else
        practice_k(S, S_s, NULL, 0, head, hi, delta, eps, iv[2], iv[0], iv[1],
                   tag, outside, 0, p);
    store_nodes_k(S, S_s, head, hi, delta, iv[2], iv[0] * iv[1], tag, eps, st);
    i64 v[12] = {p[0], p[1], p[3], eps, st[0], iv[0], iv[1], iv[3], st[1],
                 st[3], p[4] + st[2], p[5]};
    for (int k = 0; k < 12; k++)
        out[k] = v[k];
}

/* Every pass of a sequential counting sort in one call, with the checks of
 * kernels.sequential_passes between the phases.  Inlined into
 * sequential_untraced, with S_s fixed at 8, and into sequential_passes. */
INLINE void sequential_loop(char *S, i64 S_s, i64 head, i64 hi, i64 delta,
                            i64 top, i64 w, hook emit, i64 *out)
{
    i64 tag = (i64)1 << (w - 1);
    i64 passes = 0, moves = 0, created = 0;
    i64 phase = PHASE_OK, status = STATUS_OK, a = 0, b = 0, c = 0, d = 0;
    i64 r[12];
    while (head < hi) {
        passes++;
        practice_store(S, S_s, head, hi, delta, top, w, 0, r);
        i64 n_d = r[0], n_c = r[1], dnext = r[2], eps = r[3], eps_used = r[4];
        i64 fields = r[5], bits = r[6], pivot = r[7];
        moves += r[10];
        created += r[11];
        if (r[9] != STATUS_OK || r[8] != n_d + eps_used) {
            phase = PHASE_STORE;
            status = r[9];
            a = r[8];
            b = n_d;
            c = eps_used;
            d = eps;
            break;
        }
        EMIT(STEP_PRACTICE, passes);
        i64 mem = head + n_d + eps_used;
        partition_values_k(S, S_s, NULL, 0, mem, hi, pivot, tag, SKIP_HIGH, r);
        moves += r[1];
        if (r[0] != n_c - eps_used) {
            phase = PHASE_PARTITION;
            a = r[0];
            b = n_c - eps_used;
            break;
        }
        EMIT(STEP_PARTITION, passes);
        retrieve_form(S, S_s, head, mem, head + n_d + n_c, delta, eps, fields,
                      bits, tag, r);
        moves += r[1];
        if (r[2] != STATUS_OK || r[0] != n_d + n_c) {
            phase = PHASE_RETRIEVE;
            status = r[2];
            a = r[0];
            b = n_d + n_c;
            break;
        }
        EMIT(STEP_RETRIEVE, passes);
        head += n_d + n_c;
        if (head != hi && (dnext < 0 || n_d + n_c == 0)) {
            phase = PHASE_PREFIX;
            a = head;
            b = hi;
            break;
        }
        delta = dnext;
    }
    loop_result(out, passes, moves, created, head, phase, status, a, b, c, d);
}

UNTRACED void sequential_untraced(char *S, i64 head, i64 hi, i64 delta,
                                  i64 top, i64 w, i64 *out)
{
    sequential_loop(S, 8, head, hi, delta, top, w, NULL, out);
}

/* Every pass of a recursive counting sort in one call, with the checks of
 * kernels.stacked_passes, each pushing its level (head, delta) to L until
 * cap levels are written; once head reaches hi, the unwind of every level,
 * newest first.  Level k's memory ends where level k + 1 starts, the
 * newest's at end, where this call's last pass left it.  Inlined into
 * stacked_untraced, with S_s fixed at 8, and into stacked_passes. */
INLINE void stacked_loop(char *S, i64 S_s, char *L, i64 L_s, i64 head, i64 hi,
                         i64 delta, i64 top, i64 depth, i64 cap, i64 w,
                         hook emit, i64 *out)
{
    i64 tag = (i64)1 << (w - 1);
    i64 passes = 0, moves = 0, created = 0, end = hi;
    i64 phase = PHASE_OK, status = STATUS_OK, a = 0, b = 0, c = 0, d = 0;
    i64 r[12];
    while (head < hi && depth < cap) {
        passes++;
        /* The companions a pass leaves stay in the segment, below the next
         * interval, so practice steps over words on both sides of it; the
         * other loops leave none there, and keep skip_deferred, which
         * fails on most blocks here.  The first pass has nothing below its
         * interval. */
        practice_store(S, S_s, head, hi, delta, top, w, depth > 0, r);
        i64 n_d = r[0], dnext = r[2], eps_used = r[4];
        moves += r[10];
        created += r[11];
        if (r[9] != STATUS_OK || r[8] != n_d + eps_used) {
            phase = PHASE_STORE;
            status = r[9];
            a = r[8];
            b = n_d;
            c = eps_used;
            d = r[3];
            break;
        }
        AT(L, 2 * depth) = head;
        AT(L, 2 * depth + 1) = delta;
        depth++;
        EMIT(STEP_PRACTICE, depth);
        end = head + n_d + eps_used;
        if (dnext >= 0 && end == head) {
            phase = PHASE_PREFIX;
            a = head;
            b = hi;
            break;
        }
        head = dnext < 0 ? hi : end;
        delta = dnext;
    }
    i64 write_end = hi;
    for (i64 level = depth - 1; phase == PHASE_OK && head >= hi && level >= 0;
         level--) {
        i64 h = AT(L, 2 * level), key = AT(L, 2 * level + 1), eps, split;
        i64 iv[4];
        /* A level whose memory lies outside [0, write_end), whose segment
         * is wider than the word or whose key lies outside it, reported by
         * its number from 1, as a trace numbers it. */
        if (h < 0 || h > end || end > write_end || hi - h > tag || key < 0 ||
            key >= tag) {
            phase = PHASE_UNWIND;
            status = STATUS_BAD_SLOT;
            a = level + 1;
            break;
        }
        /* The level's budget and node form, those of its pass, from its
         * segment, its key and top: a level stays two words. */
        pass_budget(hi - h, w, &eps, &split);
        pass_interval(hi - h - eps, key, top, 1, split, tag, iv);
        retrieve_form(S, S_s, h, end, write_end, key, eps, iv[0], iv[1], tag,
                      r);
        moves += r[1];
        if (r[2] != STATUS_OK) {
            phase = PHASE_UNWIND;
            status = r[2];
            break;
        }
        write_end -= r[0];
        EMIT(STEP_RETRIEVE, level + 1);
        end = h;
    }
    if (phase == PHASE_OK && head >= hi && depth > 0 && write_end != AT(L, 0)) {
        phase = PHASE_UNWIND;
        a = write_end - AT(L, 0);
    }
    i64 v[12] = {passes, moves, created, head, delta, depth, phase, status,
                 a, b, c, d};
    for (int k = 0; k < 12; k++)
        out[k] = v[k];
}

UNTRACED void stacked_untraced(char *S, char *L, i64 L_s, i64 head, i64 hi,
                               i64 delta, i64 top, i64 depth, i64 cap, i64 w,
                               i64 *out)
{
    stacked_loop(S, 8, L, L_s, head, hi, delta, top, depth, cap, w, NULL, out);
}

/* store_records, taking the untagged-word skip path. */
INLINE void store_records_k(char *S, i64 S_s, i64 lo, i64 hi, i64 n_d, i64 tag,
                            i64 *out)
{
    i64 vmask = tag - 1;
    i64 k = lo, moves = 0;
    for (i64 p = lo; p < hi; p++) {
        if (!(AT(S, p) & tag)) {
            p = skip_untagged_up(S, S_s, p + 1, hi, tag) - 1;
            continue;
        }
        if (p != k) {
            i64 a = AT(S, k), b = AT(S, p);
            AT(S, k) = (a & tag) | (b & vmask);
            AT(S, p) = (b & tag) | (a & vmask);
            moves += 2;
        }
        k++;
        if (k - lo == n_d)
            break;
    }
    out[0] = k - lo;
    out[1] = moves;
    out[2] = k - lo != n_d ? STATUS_TAG_SCAN : STATUS_OK;
}

void store_records(char *S, i64 S_s, i64 lo, i64 hi, i64 n_d, i64 tag, i64 *out)
{
    store_records_k(S, S_s, lo, hi, n_d, tag, out);
}

/* The set bits of x, without a call. */
INLINE i64 bit_count(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return (i64)((x * 0x0101010101010101u) >> 56);
}

/* retrieve_scan, of records of the form (F, b): counts (F == 1), bitmaps
 * of F keys (b == 1) or F packed counters of b bits; the tag scan takes the
 * untagged-word skip path. */
INLINE void retrieve_scan_k(char *S, i64 S_s, i64 lo, i64 hi, i64 n_d,
                            i64 n_c, i64 delta, i64 F, i64 b, i64 tag,
                            i64 *out)
{
    i64 vmask = tag - 1;
    i64 o = lo + n_d + n_c - 1, p = hi - 1, moves = 0;
    for (i64 k = n_d - 1; k >= 0; k--) {
        p = skip_untagged_down(S, S_s, p, lo, tag);
        while (p >= lo && !(AT(S, p) & tag))
            p--;
        if (p < lo) {
            out[0] = moves;
            out[1] = STATUS_TAG_SCAN;
            return;
        }
        i64 rec = AT(S, lo + k) & vmask;
        AT(S, p) = AT(S, p) & vmask;
        if (F == 1) {
            i64 key = delta + (p - lo);
            for (i64 c = 0; c <= rec; c++) {
                if (o < lo + k) {
                    out[0] = moves;
                    out[1] = STATUS_COLLISION;
                    return;
                }
                AT(S, o) = (AT(S, o) & tag) | key;
                o--;
                moves++;
            }
        } else if (b == 1) {
            /* The set bits below F alone, lowest first, up from
             * o - count + 1, each step clearing the lowest bit.  Where the
             * node has fewer than count slots left above lo + k, its lowest
             * bits are dropped first, so the words written and the moves
             * counted are those of kernels.retrieve_scan, which writes
             * highest first, down from o, until the collision stops it.
             * improved_passes of distinct keys (scripts/paired_grid.py, 41
             * rounds in three runs and 201 in a fourth), time with a test of
             * all F bits over time with this walk:
             *
             *     n      m/n 1         3          10         30         100
             *     5000   0.98-1.06  1.86-2.09  2.53-2.71  2.57-2.74  1.86-2.04
             *     10^5   0.97-0.98  2.29-2.38  2.29-2.36  2.26-2.40  1.82-1.95
             *
             * Highest first, one bit search per key, read 0.87-0.88 at
             * m = n, where every bit is set: each search waits on the last.
             * This walk with the count from a call (the default target has
             * no popcnt) took 1.11-1.16 times as long as with bit_count at
             * n and 3n. */
            i64 key0 = delta + (p - lo) * F, avail = o - (lo + k) + 1;
            uint64_t bits = (uint64_t)rec & (((uint64_t)1 << F) - 1);
            i64 count = bit_count(bits), status = STATUS_OK;
            for (; count > avail && bits; count--) {
                bits &= bits - 1;
                status = STATUS_COLLISION;
            }
            for (i64 q = o - count + 1; bits; q++, bits &= bits - 1)
                AT(S, q) = (AT(S, q) & tag) | (key0 + __builtin_ctzll(bits));
            o -= count;
            moves += count;
            if (status) {
                out[0] = moves;
                out[1] = status;
                return;
            }
        } else {
            uint64_t rest = (uint64_t)rec & (((uint64_t)1 << (F * b)) - 1);
            if (!write_fields(S, S_s, rest, b, delta + (p - lo) * F, &o, lo + k,
                              tag, &moves)) {
                out[0] = moves;
                out[1] = STATUS_COLLISION;
                return;
            }
        }
        p--;
    }
    out[0] = moves;
    out[1] = o != lo - 1 ? STATUS_COLLISION : STATUS_OK;
}

void retrieve_scan(char *S, i64 S_s, i64 lo, i64 hi, i64 n_d, i64 n_c,
                   i64 delta, i64 F, i64 b, i64 tag, i64 *out)
{
    retrieve_scan_k(S, S_s, lo, hi, n_d, n_c, delta, F, b, tag, out);
}

/* The gate of kernels.dense_last.  improved_passes over one pass of keys
 * drawn uniformly from m/n of the segment's span, or a permutation (perm),
 * with the gate forced on, against off: median time ratios of 41 runs
 * alternating the two (9 at 2^20), on a 2-vCPU Xeon with 48 KiB of L1d and
 * 2 MiB of L2 per core.
 *
 *     words   m/n 1/2   5/8   3/4    1    perm
 *     4096       1.95  1.47  1.12  0.90  0.85
 *     8192       1.03  0.96  0.82  0.79  0.98
 *     12288      1.01  0.87  0.87  0.85  0.86
 *     16384      0.88  0.85  0.82  0.77  0.92
 *     2^17       0.83  0.83  0.74  0.72  0.95
 *     2^20       0.84  0.69  0.59  0.51  0.28
 *
 * The machine changes its own speed by up to ~1.7x, and repeats of a cell
 * moved by up to 0.1 (permutations of 8192 words read 0.93-1.11).
 * Hence a floor of 2^14 words, and keys that span 5/8 of the segment: a
 * margin over 1/2, which read 0.96-1.08 at 2^17-2^20 in a build whose
 * rounds always went through the list of live cursors.
 *
 * Those were count nodes.  Packed nodes (F = 4 at 2^14 words, 3 at 2^15
 * to 2^19, 2 at 2^20, w = 63), whose slots fill only the first 1/F of the
 * segment, make the chase of one cursor shorter, and the cursors pay only
 * where keys span most of the segment (time with the cursors taken
 * regardless of spread over refused, both with the node-masked retrieval;
 * scripts/paired_grid.py, 301 rounds, an input drawn for each round):
 *
 *     words   m/n 1/2   5/8   3/4    1    perm
 *     2^14       1.16  1.07  0.99  0.90  0.90
 *     2^15       0.98  1.00  0.91  0.90  0.91
 *     2^16       1.07  0.96  0.95  0.90  0.90
 *     2^17       1.14  0.88  0.98  0.92  0.82
 *     2^18       0.97  0.88  0.97  0.93  0.90
 *     2^19       1.10  1.08  0.97  0.82  0.87
 *     2^20       1.14  1.00  0.92  0.83  0.78
 *
 * Hence packed nodes keep the floor, with keys that span 3/4 of the
 * segment.  On the benchmark's dense-sort (2^17 keys below n), refusing
 * them the cursors raised op_cal_p50 from 0.261 to 0.295 cal (6 pairs of
 * 25-s runs, each won by the cursors). */
#define CURSORS 16
#define DENSE_FLOOR ((i64)1 << 14)

/* Whether a pass over seg words from delta whose keys are at most top
 * defers no key. */
INLINE int defers_none(i64 seg, i64 delta, i64 top)
{
    return delta >= 0 && delta <= top && (uint64_t)(top - delta) < (uint64_t)seg;
}

INLINE int dense_last(i64 seg, i64 delta, i64 top, i64 F)
{
    if (seg < DENSE_FLOOR || !defers_none(seg, delta, top))
        return 0;
    /* With defers_none, spread is exact, and 8 * spread < 8 * seg. */
    uint64_t spread = (uint64_t)(top - delta);
    return 8 * spread >= (F == 1 ? 5 : 6) * (uint64_t)seg;
}

/* All ones where x is nonzero, else 0. */
INLINE i64 mask_if(i64 x)
{
    return -(i64)(x != 0);
}

/* a where m is 0, b where m is all ones. */
INLINE i64 pick(i64 m, i64 a, i64 b)
{
    return a ^ ((a ^ b) & m);
}

/* The counters of practice_cursors. */
typedef struct {
    i64 n_d, n_c, n_def, dnext;
} tally;

/* One step of cursor c of practice_cursors, of nodes of the form (F, b).
 * Each chase of displaced words is a chain of dependent loads; with one
 * cursor each load waits for the one before, with CURSORS they overlap, as
 * long as no mispredicted branch on a loaded slot discards the steps after
 * it.  So a step branches on its own word only, and picks what it writes
 * to its word and the slot by mask, a bumped node's key written back. */
INLINE void cursor_step(char *S, i64 S_s, i64 lo, i64 span, i64 delta, i64 F,
                        i64 b, i64 tag, int sh, i64 *cur, int c, tally *n)
{
    i64 i = cur[c], v = AT(S, i), d = v - delta;
    if (mask_if(v & tag) | (d >> 63)) {
        cur[c] = i + 1;
        return;
    }
    if (d >= span) {
        n->n_def++;
        if (n->dnext < 0 || v < n->dnext)
            n->dnext = v;
        cur[c] = i + 1;
        return;
    }
    i64 q = (i64)((uint64_t)d / (uint64_t)F), j = lo + q;
    i64 one = (i64)1 << ((d - q * F) * b);
    i64 t = AT(S, j);
    i64 bump = mask_if(t & tag), make = ~bump;
    AT(S, i) = pick(make, v, t);
    AT(S, j) = pick(bump, tag | (F != 1 ? one : 0),
                    (i64)((uint64_t)t + (uint64_t)one));
    n->n_d -= make;
    n->n_c -= bump;
    cur[c] = i + 1 + (make & -(i64)(j >= cur[(j - lo) >> sh]));
}

/* kernels.practice_cursors: practice of a whole segment, of count or
 * packed nodes, as CURSORS interleaved cursors, one per block of 2^sh
 * words. */
INLINE void practice_cursors_k(char *S, i64 S_s, i64 lo, i64 hi, i64 delta,
                               i64 span, i64 F, i64 b, i64 tag, i64 *out)
{
    i64 seg = hi - lo, cur[CURSORS], end[CURSORS];
    tally n = {0, 0, 0, -1};
    int sh = 0, live[CURSORS], n_live = 0;
    while (seg > ((i64)CURSORS << sh))
        sh++;
    for (int c = 0; c < CURSORS; c++) {
        i64 a = lo + ((i64)c << sh), e = a + ((i64)1 << sh);
        cur[c] = a < hi ? a : hi;
        end[c] = e < hi ? e : hi;
        if (cur[c] < end[c])
            live[n_live++] = c;
    }
    while (n_live) {
        /* A cursor moves at most one word a round, so none ends within
         * the next `rounds` rounds but at its last step. */
        i64 rounds = end[live[0]] - cur[live[0]];
        for (int x = 1; x < n_live; x++)
            if (end[live[x]] - cur[live[x]] < rounds)
                rounds = end[live[x]] - cur[live[x]];
        /* While every cursor is live, a round needs no list of them: with
         * the list, dense sorts of 2^17 keys practiced ~8% slower. */
        for (; rounds > 0; rounds--)
            if (n_live == CURSORS)
                for (int c = 0; c < CURSORS; c++)
                    cursor_step(S, S_s, lo, span, delta, F, b, tag, sh, cur, c,
                                &n);
            else
                for (int x = 0; x < n_live; x++)
                    cursor_step(S, S_s, lo, span, delta, F, b, tag, sh, cur,
                                live[x], &n);
        int kept = 0;
        for (int x = 0; x < n_live; x++)
            if (cur[live[x]] < end[live[x]])
                live[kept++] = live[x];
        n_live = kept;
    }
    out[0] = n.n_d;
    out[1] = n.n_c;
    out[2] = n.n_def;
    out[3] = n.dnext;
    out[4] = n.n_d;
    out[5] = n.n_d;
    out[6] = -1;
}

void practice_cursors(char *S, i64 S_s, i64 lo, i64 hi, i64 delta, i64 span,
                      i64 F, i64 b, i64 tag, i64 *out)
{
    practice_cursors_k(S, S_s, lo, hi, delta, span, F, b, tag, out);
}

/* store_records_k without the skip path, for a dense-last pass, whose
 * words are mostly nodes in no order a branch predicts: every word is
 * written, back unchanged where store_records_k leaves it. */
INLINE void store_records_dense(char *S, i64 S_s, i64 lo, i64 hi, i64 n_d,
                                i64 tag, i64 *out)
{
    i64 vmask = tag - 1, k = lo, moves = 0;
    /* store_records_k stops right after its n_d-th node, if n_d > 0. */
    i64 stop = n_d > 0 ? lo + n_d : lo - 1;
    for (i64 p = lo; p < hi && k != stop; p++) {
        i64 a = AT(S, k), b = AT(S, p);
        i64 node = mask_if(b & tag), swap = node & mask_if(p != k);
        AT(S, k) = pick(swap, a, (a & tag) | (b & vmask));
        AT(S, p) = pick(swap, b, (b & tag) | (a & vmask));
        moves += swap & 2;
        k -= node;
    }
    out[0] = k - lo;
    out[1] = moves;
    out[2] = k - lo != n_d ? STATUS_TAG_SCAN : STATUS_OK;
}

/* Words retrieve_dense writes by mask for a node of F fields: one block
 * of 4 for a count, two for packed nodes, whose mean key count is at most
 * 1.6 F in a dense-last pass. */
#define WINDOW(F) ((F) == 1 ? 4 : 8)

/* retrieve_scan_k of count nodes or of packed nodes of at most 4 fields,
 * for a pass that defers no key, where gaps between nodes and counts are
 * short and in no order a branch predicts.  The tag scan's skip path
 * finds the highest tag of the next 4 words from one lane mask.  A node
 * whose keys fit WINDOW(F) words and cannot collide writes WINDOW(F)
 * words by mask, each its key or itself back: the key of a word
 * is key0 plus the number of running sums of the node's fields, lowest
 * field first, that lie at or below the word's place in the node's run.
 * Larger nodes, and the ends of the segment, write field by field, every
 * field in turn: most hold a count, and the next is known without waiting
 * on the last, as write_fields' search for it waits.  A straight write
 * for a node of one key a field, as a permutation leaves them all, took
 * 0.89-0.95 of this time on permutations of 2^14-2^20 keys, but 1.01-1.02
 * on keys below n or n/2 (dense-sort's), so there is none. */
INLINE void retrieve_dense(char *S, i64 S_s, i64 lo, i64 hi, i64 n_d, i64 n_c,
                           i64 delta, i64 F, i64 b, i64 tag, i64 *out)
{
    i64 vmask = tag - 1, field = (i64)(((uint64_t)1 << b) - 1);
    i64 o = lo + n_d + n_c - 1, p = hi - 1, moves = 0;
    for (i64 k = n_d - 1; k >= 0; k--) {
        p = skip_untagged_down(S, S_s, p, lo, tag);
        while (p >= lo && !(AT(S, p) & tag))
            p--;
        if (p < lo) {
            out[0] = moves;
            out[1] = STATUS_TAG_SCAN;
            return;
        }
        i64 rec = AT(S, lo + k) & vmask, key0 = delta + (p - lo) * F;
        AT(S, p) = AT(S, p) & vmask;
        p--;
        i64 sum[4], total = rec + 1;
        if (F != 1) {
            total = 0;
            for (i64 f = 0; f < F; f++)
                sum[f] = total += rec >> (f * b) & field;
        }
        if ((uint64_t)total <= WINDOW(F) && o - (WINDOW(F) - 1) >= lo + k) {
            for (i64 h = 0; h < WINDOW(F); h += 4) {
                v4 y, u = SPLAT(total - 4 - h) + LANE, key = SPLAT(key0);
                load4(&y, S, S_s, o - h - 3);
                for (i64 f = 0; f + 1 < F; f++)
                    key -= u >= SPLAT(sum[f]);
                v4 w = u >= SPLAT(0), x = (y & SPLAT(tag)) | key;
                y = (x & w) | (y & ~w);
                store4(S, S_s, o - h - 3, &y);
            }
            o -= total;
            moves += total;
            continue;
        }
        for (i64 f = F - 1; f >= 0; f--) {
            for (i64 c = F == 1 ? rec + 1 : rec >> (f * b) & field; c; c--) {
                if (o < lo + k) {
                    out[0] = moves;
                    out[1] = STATUS_COLLISION;
                    return;
                }
                AT(S, o) = (AT(S, o) & tag) | (key0 + f);
                o--;
                moves++;
            }
        }
    }
    out[0] = moves;
    out[1] = o != lo - 1 ? STATUS_COLLISION : STATUS_OK;
}

/* practice_cursors_k of packed nodes, one instance per form: a dense-last
 * segment has 2^14 words or more, whose fields at w <= 63 have 15 bits or
 * more, so F is 2, 3 or 4.  improved_loop calls the count instance itself:
 * with it in this switch, dense sorts of count nodes (w = 32) took ~4%
 * longer at 2^17 words. */
INLINE void packed_cursors(char *S, i64 S_s, i64 lo, i64 hi, i64 delta,
                           i64 span, i64 F, i64 b, i64 tag, i64 *out)
{
#define CURSORS_OF(f) practice_cursors_k(S, S_s, lo, hi, delta, span, f, b, tag, out)
    switch (F) {
    case 2: CURSORS_OF(2); break;
    case 3: CURSORS_OF(3); break;
    default: CURSORS_OF(4);
    }
#undef CURSORS_OF
}

/* retrieve_dense, one instance per form: count nodes, or packed nodes of
 * at most 4 fields (see masked in improved_loop). */
INLINE void retrieve_dense_form(char *S, i64 S_s, i64 lo, i64 hi, i64 n_d,
                                i64 n_c, i64 delta, i64 F, i64 b, i64 tag,
                                i64 *out)
{
#define RETRIEVE_OF(f) retrieve_dense(S, S_s, lo, hi, n_d, n_c, delta, f, b, tag, out)
    switch (F) {
    case 1: RETRIEVE_OF(1); break;
    case 2: RETRIEVE_OF(2); break;
    case 3: RETRIEVE_OF(3); break;
    default: RETRIEVE_OF(4);
    }
#undef RETRIEVE_OF
}

/* The practice of a pass of narrow fields (see narrow_interval), of the
 * form iv, for improved_loop: practice_k, and where keys found their field
 * full, the interval lowered to end before the node of the least of them
 * (iv's span and pivot with it) and the nodes from there up unpracticed,
 * or, where that node is the first, the whole segment practiced again in
 * the wide form of pass_interval (the sort's node form F, b), which iv then
 * gets and no count fills up.  out: practice_k's results, the counts
 * corrected, with out[6] 1 where fields filled up, else -1.  Out of the
 * loop, once for stride 8 and once for any stride, so that the loop's
 * other practices keep their code; the rare undoing and second practice
 * call the exported kernels. */
INLINE void narrow_pass_k(char *S, i64 S_s, i64 head, i64 hi, i64 delta,
                          i64 top, i64 F, i64 b, i64 tag, i64 *iv, i64 *out)
{
    i64 r[7];
    practice_k(S, S_s, NULL, 0, head, hi, delta, 0, iv[2], iv[0], iv[1], tag,
               0, 1, out);
    if (out[6] < 0)
        return;
    i64 d = out[6] - delta, span = d - d % iv[0];
    unpractice(S, S_s, head, hi, delta, 0, span, iv[0], iv[1], tag, out[0],
               out[1], out[3], r);
    out[0] = r[0];
    out[1] = r[1];
    out[3] = r[2];
    out[4] += r[3];
    out[6] = 1;
    iv[2] = span;
    iv[3] = delta + span - 1;
    if (span > 0)
        return;
    pass_interval(hi - head, delta, top, F, b, tag, iv);
    practice(S, S_s, head, hi, delta, 0, iv[2], iv[0], iv[1], tag, NULL, 0, 0,
             r);
    out[0] = r[0];
    out[1] = r[1];
    out[2] = r[2];
    out[3] = r[3];
    out[4] += r[4];
    out[5] += r[5];
}

__attribute__((noinline, visibility("hidden"))) void
narrow_pass_8(char *S, i64 head, i64 hi, i64 delta, i64 top, i64 F, i64 b,
              i64 tag, i64 *iv, i64 *out)
{
    narrow_pass_k(S, 8, head, hi, delta, top, F, b, tag, iv, out);
}

__attribute__((noinline, visibility("hidden"))) void
narrow_pass(char *S, i64 S_s, i64 head, i64 hi, i64 delta, i64 top, i64 F,
            i64 b, i64 tag, i64 *iv, i64 *out)
{
    narrow_pass_k(S, S_s, head, hi, delta, top, F, b, tag, iv, out);
}

/* Every pass of both improved sorters in one call: the steps above, in a
 * loop, with the checks of kernels.improved_passes between them.
 * Inlined into improved_untraced, with S_s fixed at 8, and into
 * improved_passes. */
INLINE void improved_loop(char *S, i64 S_s, i64 head, i64 hi, i64 delta,
                          i64 top, i64 F, i64 b, i64 tag, hook emit, i64 *out)
{
    i64 passes = 0, moves = 0, created = 0, wider = 0;
    i64 phase = PHASE_OK, status = STATUS_OK, x = 0, y = 0;
    i64 r[7];
    while (head < hi) {
        passes++;
        i64 seg = hi - head, iv[4];
        pass_interval(seg, delta, top, F, b, tag, iv);
        if (F == 1 && (uint64_t)1 << b == (uint64_t)tag)
            narrow_interval(seg, delta, top, b, tag, wider, iv);
        i64 fields = iv[0], bits = iv[1], span = iv[2], pivot = iv[3];
        int dense = (fields == 1 || bits != 1) && dense_last(seg, delta, top, fields);
        if (dense && fields == 1) {
            practice_cursors_k(S, S_s, head, hi, delta, span, 1, 1, tag, r);
        } else if (dense) {
            packed_cursors(S, S_s, head, hi, delta, span, fields, bits, tag, r);
        } else if (fields == 1) {
            practice_k(S, S_s, NULL, 0, head, hi, delta, 0, span, 1, 1, tag, 0,
                       0, r);
        } else if (bits == 1) {
            /* One instance per node form, as for retrieval below. */
            practice_k(S, S_s, NULL, 0, head, hi, delta, 0, span, fields, 1,
                       tag, 0, 0, r);
        } else if (F == 1 && bits < bit_length(seg)) {
            if (S_s == 8)
                narrow_pass_8(S, head, hi, delta, top, F, b, tag, iv, r);
            else
                narrow_pass(S, S_s, head, hi, delta, top, F, b, tag, iv, r);
            wider += r[6] > 0;
            r[6] = -1;
            fields = iv[0];
            bits = iv[1];
            span = iv[2];
            pivot = iv[3];
        } else {
            practice_k(S, S_s, NULL, 0, head, hi, delta, 0, span, fields, bits,
                       tag, 0, 0, r);
        }
        i64 n_d = r[0], n_c = r[1], dnext = r[3];
        /* Masked storage and retrieval of count nodes pay in a dense-last
         * pass where a third of the keys or more repeat; where fewer do,
         * the branches mostly go one way.  At 2^17 words their time against
         * the branches' was 0.68 and 0.62 with 37% of the keys repeats
         * (uniform keys, m = n), 0.85 and 1.19 with 20%, 1.15 and 1.84 with
         * 10%, 3.1 and 4.1 with none.  For packed nodes 2 n_c >= n_d counts
         * keys of neighbouring fields as repeats, and no signal is needed:
         * the keys of a node vary in number, and node-level masked
         * retrieval (of at most 4 fields, see retrieve_dense) won in every
         * pass that defers nothing.  Masked storage lost for packed nodes,
         * which fill the first 1/F of the segment almost without a gap, so
         * that the branches of storage go one way.  Time
         * masked over branchy, after the pass's own practice, keys drawn
         * from m/n of the segment's span or a permutation (F = 4, 3, 2 at
         * w = 63; medians of 41 runs alternating the two, 9 at 2^20):
         *
         *     storage      m/n 1/4   1/2   3/4    1    perm
         *     2^14            2.08  1.48  1.73  1.64  1.87
         *     2^17            1.94  1.82  1.68  1.49  2.24
         *     2^20            1.80  1.69  1.36  1.06  2.07
         *     retrieval
         *     2^14            0.84  0.58  0.38  0.38  0.50
         *     2^17            0.80  0.40  0.34  0.38  0.53
         *     2^20            0.63  0.32  0.35  0.39  0.70
         */
        int masked = fields == 1 ? dense && 2 * n_c >= n_d
                                 : bits != 1 && fields <= 4 &&
                                       defers_none(seg, delta, top);
        moves += r[4];
        created += r[5];
        if (r[6] >= 0) {
            phase = PHASE_DUPLICATE;
            x = r[6];
            break;
        }
        EMIT(STEP_PRACTICE, passes);
        if (masked && fields == 1)
            store_records_dense(S, S_s, head, hi, n_d, tag, r);
        else
            store_records_k(S, S_s, head, hi, n_d, tag, r);
        moves += r[1];
        if (r[2] != STATUS_OK) {
            phase = PHASE_STORE;
            status = r[2];
            x = r[0];
            y = n_d;
            break;
        }
        EMIT(STEP_STORE, passes);
        /* A pass that defers nothing leaves only idle words in the tail,
         * all at or below the pivot, which the left-hand scan walks. */
        if (defers_none(seg, delta, top))
            partition_values_k(S, S_s, NULL, 0, head + n_d, hi, pivot, tag,
                               SKIP_LOW, r);
        else
            partition_values_k(S, S_s, NULL, 0, head + n_d, hi, pivot, tag,
                               SKIP_HIGH, r);
        moves += r[1];
        if (r[0] != n_c) {
            phase = PHASE_PARTITION;
            x = r[0];
            y = n_c;
            break;
        }
        EMIT(STEP_PARTITION, passes);
        /* One instance of retrieve_scan_k per node form: with the packed
         * walk in the instance that bitmaps take, distinct_improved sorts
         * took 2-7% longer. */
        if (masked)
            retrieve_dense_form(S, S_s, head, hi, n_d, n_c, delta, fields, bits,
                                tag, r);
        else if (fields == 1)
            retrieve_scan_k(S, S_s, head, hi, n_d, n_c, delta, 1, 1, tag, r);
        else if (bits == 1)
            retrieve_scan_k(S, S_s, head, hi, n_d, n_c, delta, fields, 1, tag, r);
        else
            retrieve_scan_k(S, S_s, head, hi, n_d, n_c, delta, fields, bits, tag,
                            r);
        moves += r[0];
        if (r[1] != STATUS_OK) {
            phase = PHASE_RETRIEVE;
            status = r[1];
            x = fields;
            y = bits;
            break;
        }
        EMIT(STEP_RETRIEVE, passes);
        head += n_d + n_c;
        if (head != hi && (dnext < 0 || n_d + n_c == 0)) {
            phase = PHASE_PREFIX;
            x = head;
            y = hi;
            break;
        }
        delta = dnext;
    }
    out[0] = passes;
    out[1] = moves;
    out[2] = created;
    out[3] = head;
    out[4] = phase;
    out[5] = status;
    out[6] = x;
    out[7] = y;
}

UNTRACED void improved_untraced(char *S, i64 head, i64 hi, i64 delta, i64 top,
                                i64 F, i64 b, i64 tag, i64 *out)
{
    improved_loop(S, 8, head, hi, delta, top, F, b, tag, NULL, out);
}

/* The kernels of the rank pass but its practice, which is practice_k
 * carrying the payloads: each an inline <name>_k that rank_loop calls and
 * an exported <name> that calls it. */
INLINE void accumulate_records_k(char *K, i64 K_s, i64 lo, i64 hi, i64 tag,
                                 i64 *out)
{
    i64 vmask = tag - 1;
    i64 n_nodes = 0, total = 0;
    for (i64 q = lo; q < hi; q++) {
        i64 x = AT(K, q);
        if (x & tag) {
            total += (x & vmask) + 1;
            AT(K, q) = tag | (total - 1);
            n_nodes++;
        }
    }
    out[0] = n_nodes;
    out[1] = total;
}

void accumulate_records(char *K, i64 K_s, i64 lo, i64 hi, i64 tag, i64 *out)
{
    accumulate_records_k(K, K_s, lo, hi, tag, out);
}

INLINE void repractice_idle_k(char *K, i64 K_s, i64 lo, i64 hi, i64 delta,
                              i64 span, i64 tag, i64 *out)
{
    i64 vmask = tag - 1;
    i64 made = 0, status = STATUS_OK;
    for (i64 q = lo; q < hi; q++) {
        i64 x = AT(K, q);
        if (x & tag)
            continue;
        i64 d = x - delta;
        if (d < 0 || d >= span)
            continue;
        i64 j = lo + d;
        i64 y = AT(K, j);
        if (!(y & tag)) {
            status = STATUS_BAD_HASH;
            break;
        }
        AT(K, q) = y & vmask;
        AT(K, j) = y - 1;
        made++;
    }
    out[0] = made;
    out[1] = status;
}

void repractice_idle(char *K, i64 K_s, i64 lo, i64 hi, i64 delta, i64 span,
                     i64 tag, i64 *out)
{
    repractice_idle_k(K, K_s, lo, hi, delta, span, tag, out);
}

/* kernels.reactivate, as CHAINS interleaved chains over the prefix [lo,
 * lo + n_sorted), chain c scanning its words [lo + c * blk, lo + (c + 1)
 * * blk), blk = ceil(n_sorted / CHAINS).  A scanned word that is final, a
 * node or a ticket at its own slot, is stepped over; any other is taken
 * in hand with its payload, and its slot becomes a hole, -tag, which no
 * record, ticket or key equals.  The chain then places the word in hand
 * and takes up the one it displaces, one step a round, until it fills a
 * hole; a deferred key goes to the tail slot that next_free finds from
 * the cursor the chains share.  A step picks the destination and the word
 * it writes by mask, since tickets and nodes come in no order a branch
 * predicts.  The walk before the chains followed each cycle of the
 * segment's permutation as one chain of dependent loads; the chains
 * overlap their loads.  Time of one call of the chains over one of the
 * walk, on the same ticketed segment that defers nothing (the exported
 * kernels, calls alternating, medians of 5-2000 calls), keys over n/4 and
 * n:
 *
 *     words      2^10       2^12       2^15       2^17       2^20
 *     4 chains   0.72 0.74  0.53 0.46  0.29 0.25  0.33 0.31  0.21 0.24
 *     2 chains   0.85 0.90  0.69 0.63  0.47 0.39  0.49 0.45  0.41 0.44
 *     16 chains  0.78 0.81  0.54 0.48  0.28 0.24  0.31 0.29  0.18 0.18
 *
 * The scan steps over final words 4 at a time (see skip_final): one at a
 * time, it took 1.38 times as long as the walk on permutations of 2^15
 * words, where every word is final; with skip_final, 0.56.  defers is a
 * literal at every call, as practice_k's P: 0 compiles the instance for a
 * pass that defers nothing (n_sorted == hi - lo), whose tail is empty and
 * in which an untagged word at or past n_sorted fails. */
#define CHAINS 4
/* The hole, of reactivate_k's tag: below 0, so no record, ticket or key
 * equals it. */
#define HOLE (-tag)

/* From t, below hi: the first slot that holds no deferred key, an
 * untagged word of m or more; hi where there is none.  It tests 4 words
 * at a time, as a skip path does.  Tested one at a time, in a loop whose
 * exit no branch predicts, rank sorts of 5,000 and 10^5 keys over 2n-5n
 * took 1.02-1.07 times as long as with the walk before the chains, and
 * 0.81-0.98 times so (medians; both builds' rank_passes in one harness,
 * fresh keys each round). */
INLINE i64 next_free(char *K, i64 K_s, i64 t, i64 hi, i64 m, i64 tag)
{
    v4 v;
    while (t + 4 <= hi) {
        load4(&v, K, K_s, t);
        v4 stop = ((v & SPLAT(tag)) != 0) | (v < SPLAT(m));
        int mask = lanes(stop);
        if (mask)
            return t + __builtin_ctz(mask);
        t += 4;
    }
    while (t < hi && !(AT(K, t) & tag) && AT(K, t) >= m)
        t++;
    return t;
}

INLINE void reactivate_k(char *K, i64 K_s, char *P, i64 P_s, i64 lo, i64 hi,
                         i64 n_sorted, i64 tag, int defers, i64 *out)
{
    i64 vmask = tag - 1, n = hi - lo, m = defers ? n_sorted : n;
    i64 blk = (m + CHAINS - 1) / CHAINS, tail = lo + m;
    i64 cur[CHAINS], end[CHAINS], to[CHAINS], put[CHAINS], pay[CHAINS];
    i64 moves = 0, placed = 0, status = STATUS_OK;
    int live = 0; /* bit c: chain c has words left to scan or one in hand */
    for (int c = 0; c < CHAINS; c++) {
        cur[c] = lo + (c * blk < m ? c * blk : m);
        end[c] = lo + ((c + 1) * blk < m ? (c + 1) * blk : m);
        to[c] = -1;
        put[c] = pay[c] = 0;
        live |= (cur[c] < end[c]) << c;
    }
    while (live) {
        for (int c = 0; c < CHAINS; c++) {
            i64 q = to[c];
            if (q < 0) {
                if (!(live >> c & 1))
                    continue;
                i64 e = end[c], x = 0;
                i64 i = skip_final(K, K_s, cur[c], e, lo, tag, HOLE);
                for (; i < e; i++) {
                    x = AT(K, i);
                    if (!((x == i - lo) | (((x & tag) != 0) & (x != HOLE))))
                        break;
                }
                cur[c] = i;
                if (i == e) {
                    live &= ~(1 << c);
                    continue;
                }
                /* x is untagged, or a hole no chain made: below 0. */
                i64 d = x;
                if ((uint64_t)x >= (uint64_t)m) {
                    if (!defers || x < 0) {
                        status = STATUS_BAD_SLOT;
                        goto done;
                    }
                    d = next_free(K, K_s, tail, hi, m, tag) - lo;
                    if (d == n) {
                        status = STATUS_CURSOR;
                        goto done;
                    }
                    tail = lo + d + 1;
                }
                pay[c] = AT(P, i);
                AT(K, i) = HOLE;
                moves++;
                cur[c] = i + 1;
                put[c] = x;
                q = lo + d;
            }
            if (++placed > n) {
                status = STATUS_BAD_SLOT;
                goto done;
            }
            i64 z = AT(K, q), pz = AT(P, q);
            AT(K, q) = put[c];
            AT(P, q) = pay[c];
            moves += 2;
            if (z == HOLE) {
                /* A hole is made only in the prefix, where its chain has
                 * scanned. */
                if ((defers && q - lo >= m) || q >= cur[(q - lo) / blk]) {
                    status = STATUS_BAD_SLOT;
                    goto done;
                }
                to[c] = -1;
                continue;
            }
            i64 node = mask_if(z & tag), d = pick(node, z, z & vmask);
            /* Past the prefix, only a deferred key may go. */
            if ((uint64_t)d >= (uint64_t)m && (!defers || node || z < 0)) {
                status = STATUS_BAD_SLOT;
                goto done;
            }
            put[c] = pick(node, z, tag | (q - lo));
            pay[c] = pz;
            to[c] = lo + d;
            if ((uint64_t)d >= (uint64_t)m) {
                to[c] = next_free(K, K_s, tail, hi, m, tag);
                if (to[c] == hi) {
                    status = STATUS_CURSOR;
                    goto done;
                }
                tail = to[c] + 1;
            }
        }
    }
done:
    out[0] = moves;
    out[1] = status;
}

void reactivate(char *K, i64 K_s, char *P, i64 P_s, i64 lo, i64 hi,
                i64 n_sorted, i64 tag, i64 *out)
{
    if (n_sorted < 0 || n_sorted > hi - lo) {
        out[0] = 0;
        out[1] = STATUS_CURSOR;
    } else if (n_sorted == hi - lo) {
        reactivate_k(K, K_s, P, P_s, lo, hi, n_sorted, tag, 0, out);
    } else {
        reactivate_k(K, K_s, P, P_s, lo, hi, n_sorted, tag, 1, out);
    }
}

/* The key is carried by mask: nodes and the untagged words of their runs
 * alternate in no order a branch predicts.  Only an untagged word before
 * any node, which a valid prefix never holds, takes the branch. */
INLINE void restore_keys_k(char *K, i64 K_s, i64 lo, i64 hi_sorted, i64 delta,
                           i64 tag, i64 *out)
{
    i64 vmask = tag - 1;
    i64 key = -1, moves = 0, status = STATUS_OK;
    for (i64 q = lo; q < hi_sorted; q++) {
        i64 x = AT(K, q), node = mask_if(x & tag);
        if (key < 0 && !node) {
            status = STATUS_BAD_PREFIX;
            break;
        }
        key = pick(node, key, delta + (x & vmask));
        AT(K, q) = key;
        moves++;
    }
    out[0] = moves;
    out[1] = status;
}

void restore_keys(char *K, i64 K_s, i64 lo, i64 hi_sorted, i64 delta, i64 tag,
                  i64 *out)
{
    restore_keys_k(K, K_s, lo, hi_sorted, delta, tag, out);
}

/* Every pass of a rank sort in one call, with the checks of
 * kernels.rank_passes between the phases.  Inlined into rank_untraced,
 * with both strides fixed at 8, and into rank_passes. */
INLINE void rank_loop(char *K, i64 K_s, char *P, i64 P_s, i64 head, i64 hi,
                      i64 delta, i64 tag, hook emit, i64 *out)
{
    i64 passes = 0, moves = 0, created = 0;
    i64 phase = PHASE_OK, status = STATUS_OK, a = 0, b = 0, c = 0, d = 0;
    i64 r[7];
    while (head < hi) {
        passes++;
        i64 seg = hi - head;
        /* P is never NULL here.  Told so, the compiler drops practice_k's
         * tests of it: with the tests left in, rank sorts of keys over
         * 3n-100n took 1.01-1.03 times as long (scripts/paired_grid.py,
         * two runs of 61 and 101 rounds). */
        if (!P)
            __builtin_unreachable();
        practice_k(K, K_s, P, P_s, head, hi, delta, 0, seg, 1, 1, tag, 0, 0, r);
        i64 n_d = r[0], n_c = r[1], dnext = r[3];
        moves += r[4];
        created += r[5];
        EMIT(STEP_PRACTICE, passes);
        accumulate_records_k(K, K_s, head, hi, tag, r);
        if (r[0] != n_d || r[1] != n_d + n_c) {
            phase = PHASE_ACCUMULATE;
            a = r[0];
            b = r[1];
            c = n_d;
            d = n_d + n_c;
            break;
        }
        EMIT(STEP_ACCUMULATE, passes);
        repractice_idle_k(K, K_s, head, hi, delta, seg, tag, r);
        if (r[1] != STATUS_OK || r[0] != n_c) {
            phase = PHASE_TICKET;
            status = r[1];
            a = r[0];
            b = n_c;
            break;
        }
        EMIT(STEP_REPRACTICE, passes);
        /* The instance for a pass that defers nothing, the one pass of
         * keys over at most n and the last of every sort, lies on the
         * loop's path; the hint only lays the other out of it. */
        if (__builtin_expect(n_d + n_c == seg, 1))
            reactivate_k(K, K_s, P, P_s, head, hi, seg, tag, 0, r);
        else
            reactivate_k(K, K_s, P, P_s, head, hi, n_d + n_c, tag, 1, r);
        moves += r[0];
        if (r[1] != STATUS_OK) {
            phase = PHASE_REACTIVATE;
            status = r[1];
            break;
        }
        EMIT(STEP_REACTIVATE, passes);
        restore_keys_k(K, K_s, head, head + n_d + n_c, delta, tag, r);
        moves += r[0];
        if (r[1] != STATUS_OK) {
            phase = PHASE_RESTORE;
            status = r[1];
            break;
        }
        EMIT(STEP_RESTORE, passes);
        head += n_d + n_c;
        if (head != hi && (dnext < 0 || n_d + n_c == 0)) {
            phase = PHASE_PREFIX;
            a = head;
            b = hi;
            break;
        }
        delta = dnext;
    }
    loop_result(out, passes, moves, created, head, phase, status, a, b, c, d);
}

UNTRACED void rank_untraced(char *K, char *P, i64 head, i64 hi, i64 delta,
                            i64 tag, i64 *out)
{
    rank_loop(K, 8, P, 8, head, hi, delta, tag, NULL, out);
}

i64 radix_pass(char *src, i64 src_s, char *dst, i64 dst_s, i64 n, i64 shift)
{
    i64 counts[256] = {0};
    for (i64 i = 0; i < n; i++)
        counts[(AT(src, i) >> shift) & 0xFF]++;
    i64 total = 0;
    for (int b = 0; b < 256; b++) {
        i64 c = counts[b];
        counts[b] = total;
        total += c;
    }
    for (i64 i = 0; i < n; i++) {
        i64 d = (AT(src, i) >> shift) & 0xFF;
        AT(dst, counts[d]) = AT(src, i);
        counts[d]++;
    }
    return n;
}

/* The exported pass loops, last in the file: each runs its untraced
 * instance (see UNTRACED) for an untraced sort of stride-8 arrays, and its
 * own instance, handing it the hook, for every other sort.  Placed here,
 * their instances follow every <loop>_untraced, not lie between them.
 * Where the exported loops sat each beside its own, and so moved the
 * untraced ones, cycle_distinct sorts at m = n took 1.04-1.11 times as
 * long and assoc_improved sorts over 3n 1.03-1.08 (two layouts,
 * scripts/paired_grid.py, 101-201 rounds). */
void distinct_passes(char *S, i64 S_s, i64 head, i64 hi, i64 delta,
                     hook emit, i64 *out)
{
    if (!emit && S_s == 8)
        distinct_untraced(S, head, hi, delta, out);
    else
        distinct_loop(S, S_s, head, hi, delta, emit, out);
}

void sequential_passes(char *S, i64 S_s, i64 head, i64 hi, i64 delta, i64 top,
                       i64 w, hook emit, i64 *out)
{
    if (!emit && S_s == 8)
        sequential_untraced(S, head, hi, delta, top, w, out);
    else
        sequential_loop(S, S_s, head, hi, delta, top, w, emit, out);
}

void stacked_passes(char *S, i64 S_s, char *L, i64 L_s, i64 head, i64 hi,
                    i64 delta, i64 top, i64 depth, i64 cap, i64 w, hook emit,
                    i64 *out)
{
    if (!emit && S_s == 8)
        stacked_untraced(S, L, L_s, head, hi, delta, top, depth, cap, w, out);
    else
        stacked_loop(S, S_s, L, L_s, head, hi, delta, top, depth, cap, w, emit,
                     out);
}

void improved_passes(char *S, i64 S_s, i64 head, i64 hi, i64 delta, i64 top,
                     i64 F, i64 b, i64 tag, hook emit, i64 *out)
{
    if (!emit && S_s == 8)
        improved_untraced(S, head, hi, delta, top, F, b, tag, out);
    else
        improved_loop(S, S_s, head, hi, delta, top, F, b, tag, emit, out);
}

void rank_passes(char *K, i64 K_s, char *P, i64 P_s, i64 head, i64 hi,
                 i64 delta, i64 tag, hook emit, i64 *out)
{
    if (!emit && K_s == 8 && P_s == 8)
        rank_untraced(K, P, head, hi, delta, tag, out);
    else
        rank_loop(K, K_s, P, P_s, head, hi, delta, tag, emit, out);
}
