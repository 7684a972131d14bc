/* Runs kernels of kernels.c on buffers sized to exactly the words they
 * may touch.  Built with -fsanitize=address,undefined, a read one word
 * past either end of a buffer stops it with a report.  Built with -DGUARD
 * instead, each buffer is mapped flush against a PROT_NONE page, and such
 * a read stops it with SIGSEGV: each case then runs twice, once with the
 * page after the buffer's last byte and once before its first.  The
 * cases, the block-boundary shapes, bitmap retrieval records, sparse
 * segments, stacked_passes segments whose second pass skips outside its
 * interval, passes that settle most of their segment and defer a few
 * keys, dense-last segments (for improved_passes and
 * practice_cursors) and the stop words of every skip path in every lane
 * of test_skip_paths.py, come from that test on stdin, one a line:
 *
 *   <kernel> <sorts> <k> <k integer arguments> <n> <n words>
 *
 * A pass loop is handed NULL for its hook, but in a case whose kernel name
 * is the loop's with a leading '+': there it gets a hook that counts its
 * calls, and its last integer argument, not passed to the loop, is the
 * number of calls the Python loop makes on the case, which every run must
 * make too.
 *
 * Each case runs through views of byte stride 8, 16 and -8 (both
 * instances of each loop), which must give the same
 * results and words; where sorts is 1 and the loop reports no failure, it
 * must leave its segment sorted (stacked_passes through its unwind, which
 * the same call runs once its passes reach the end).  Prints
 * the number of cases and of failures, and a digest of every case's
 * results and words, so that builds for two ISAs can be compared; exits 0
 * when there are no failures.
 *
 * The kernels' declarations are not copied here: both files are built
 * with -include of a header holding ckernels.CDEF, the declarations cffi
 * loads the library with, so a definition in kernels.c that drifts from
 * its Python twin fails to compile with "conflicting types":
 *
 *   (echo '#include <stdint.h>'; PYTHONPATH=src python3 -c \
 *       'from assocsort.ckernels import CDEF; print(CDEF)') > kernels.h
 *   cc -O2 -g -fsanitize=address,undefined -fno-sanitize-recover \
 *      -include kernels.h src/assocsort/kernels.c tests/skip_paths_driver.c \
 *      -o driver
 *   cc -O2 -DGUARD -include kernels.h src/assocsort/kernels.c \
 *      tests/skip_paths_driver.c -o driver
 *
 * Each with -mavx2 as well, where the CPU has AVX2, for the other
 * spelling of the skip paths' lane masks.
 */

#include <inttypes.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#ifdef GUARD
#include <sys/mman.h>
#include <unistd.h>
#endif

typedef int64_t i64;

#define NOUT 12
#define MAXN (1 << 16)
#define MAXA 8

enum { PRACTICE, PRACTICE_CURSORS, IMPLICIT, FIXPOINTS, STORE, STORE_NODES,
       PARTITION, RETRIEVE, IMPROVED, DISTINCT, SEQUENTIAL, STACKED, RANK,
       KINDS };

static const char *const names[KINDS] = {
    "practice", "practice_cursors", "implicit_practice", "collect_fixpoints",
    "store_records", "store_nodes", "partition_values", "retrieve_scan",
    "improved_passes", "distinct_passes", "sequential_passes",
    "stacked_passes", "rank_passes",
};

static long failures;
/* The calls of count_calls since the last run began, and how many had a
 * step outside the 8 of kernels.STEPS or a pass below 1. */
static i64 hook_calls, bad_calls;

static void count_calls(int64_t step, int64_t pass)
{
    hook_calls++;
    bad_calls += step < 0 || step > 7 || pass < 1;
}
/* FNV-1a over the results and words of every case's first run. */
static uint64_t digest = 14695981039346656037u;

static void digest_words(const i64 *w, i64 n)
{
    const unsigned char *b = (const unsigned char *)w;
    for (i64 k = 0; k < n * 8; k++)
        digest = (digest ^ b[k]) * 1099511628211u;
}

#ifdef GUARD
#define SIDES 2
/* Whether buffers have their PROT_NONE page before the first byte, rather
 * than after the last. */
static int guard_before;
#else
#define SIDES 1
#endif

/* One strided view of n words in a buffer of exactly the bytes it spans;
 * with GUARD, map is the mapping of map_len bytes that holds the buffer
 * and its guard page. */
typedef struct {
    char *buf, *base, *map;
    i64 stride;
    size_t map_len;
} view;

static void *alloc(i64 bytes)
{
    void *p = calloc(bytes, 1);
    if (!p) {
        perror("calloc");
        exit(2);
    }
    return p;
}

/* v's buffer of bytes bytes. */
static char *buffer(view *v, i64 bytes)
{
#ifdef GUARD
    size_t page = sysconf(_SC_PAGESIZE), data = (bytes + page - 1) / page * page;
    v->map_len = data + page;
    v->map = mmap(NULL, v->map_len, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (v->map == MAP_FAILED ||
        mprotect(guard_before ? v->map : v->map + data, page, PROT_NONE)) {
        perror("mmap");
        exit(2);
    }
    return guard_before ? v->map + page : v->map + data - bytes;
#else
    (void)v;
    return alloc(bytes);
#endif
}

static view view_of(const i64 *words, i64 n, i64 stride)
{
    i64 step = stride / 8, span = (n - 1) * (step < 0 ? -step : step) + 1;
    view v;
    v.buf = buffer(&v, span * 8);
    memset(v.buf, 0xA5, span * 8);
    v.base = step < 0 ? v.buf + (span - 1) * 8 : v.buf;
    v.stride = stride;
    for (i64 i = 0; i < n; i++)
        memcpy(v.base + i * stride, &words[i], 8);
    return v;
}

static void read_back(view v, i64 n, i64 *words)
{
    for (i64 i = 0; i < n; i++)
        memcpy(&words[i], v.base + i * v.stride, 8);
#ifdef GUARD
    munmap(v.map, v.map_len);
#else
    free(v.buf);
#endif
}

/* Kernel kind with integer arguments a on words (and, for the loops
 * that take one, a zeroed level array of 2n words or a payload ramp)
 * through views of byte stride, a loop handed the hook emit; out gets its
 * results, words what it left. */
static void run(int kind, i64 *words, i64 n, const i64 *a, i64 stride,
                hook emit, i64 *out)
{
    i64 *P = alloc(n * 8), *L = alloc(2 * n * 8);
    for (i64 i = 0; i < n; i++)
        P[i] = i;
    view S = view_of(words, n, stride), Pv = view_of(P, n, stride);
    view Lv = view_of(L, 2 * n, stride);
    char *s = S.base;
    memset(out, 0, NOUT * sizeof *out);
    switch (kind) {
    case PRACTICE:
        practice(s, stride, a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7],
                 out);
        break;
    case PRACTICE_CURSORS:
        practice_cursors(s, stride, a[0], a[1], a[2], a[3], a[4], a[5], a[6],
                         out);
        break;
    case IMPLICIT:
        implicit_practice(s, stride, a[0], a[1], a[2], out);
        break;
    case FIXPOINTS:
        collect_fixpoints(s, stride, a[0], a[1], a[2], out);
        break;
    case STORE:
        store_records(s, stride, a[0], a[1], a[2], a[3], out);
        break;
    case STORE_NODES:
        store_nodes(s, stride, a[0], a[1], a[2], a[3], a[4], a[5], a[6], out);
        break;
    case PARTITION:
        partition_values(s, stride, a[0], a[1], a[2], a[3], out);
        break;
    case RETRIEVE:
        retrieve_scan(s, stride, a[0], a[1], a[2], a[3], a[4], a[5], a[6],
                      a[7], out);
        break;
    case IMPROVED:
        improved_passes(s, stride, a[0], a[1], a[2], a[3], a[4], a[5], a[6],
                        emit, out);
        break;
    case DISTINCT:
        distinct_passes(s, stride, a[0], a[1], a[2], emit, out);
        break;
    case SEQUENTIAL:
        sequential_passes(s, stride, a[0], a[1], a[2], a[3], a[4], emit, out);
        break;
    case STACKED:
        stacked_passes(s, stride, Lv.base, stride, a[0], a[1], a[2], a[3],
                       a[4], a[5], a[6], emit, out);
        break;
    case RANK:
        rank_passes(s, stride, Pv.base, stride, a[0], a[1], a[2], a[3], emit,
                    out);
        break;
    }
    read_back(S, n, words);
    read_back(Pv, n, P);
    read_back(Lv, 2 * n, L);
    free(P);
    free(L);
}

/* kind on words at every stride (and each side of the guard pages): the
 * same results and words, and a sorted segment where sorted is set and the
 * loop reports no failure (for stacked_passes: also reaches the end of the
 * segment, so that it unwinds).  With calls at 0 or more, a loop handed
 * count_calls, which each run must call that many times. */
static void check(int kind, const i64 *words, i64 n, const i64 *a, int sorted,
                  i64 calls)
{
    static const i64 strides[] = {8, 16, -8};
    i64 first[NOUT], *w0 = alloc(n * 8), *w = alloc(n * 8);
    for (int r = 0; r < 3 * SIDES; r++) {
        i64 out[NOUT], stride = strides[r % 3];
#ifdef GUARD
        guard_before = r / 3;
#endif
        memcpy(w, words, n * 8);
        hook_calls = bad_calls = 0;
        run(kind, w, n, a, stride, calls < 0 ? NULL : count_calls, out);
        if (calls >= 0 && (hook_calls != calls || bad_calls)) {
            fprintf(stderr, "%s, n %lld: run %d hooked %lld calls of %lld\n",
                    names[kind], (long long)n, r, (long long)hook_calls,
                    (long long)calls);
            failures++;
        }
        if (r == 0) {
            memcpy(first, out, sizeof first);
            memcpy(w0, w, n * 8);
            digest_words(first, NOUT);
            digest_words(w0, n);
        } else if (memcmp(first, out, sizeof first) || memcmp(w0, w, n * 8)) {
            fprintf(stderr, "%s, n %lld: run %d (stride %lld) differs from 8\n",
                    names[kind], (long long)n, r, (long long)stride);
            failures++;
        }
    }
    free(w);
    if (!sorted) {
        free(w0);
        return;
    }
    i64 phase = kind != STACKED ? first[4] : first[6] || first[3] != a[1];
    for (i64 i = 1; phase == 0 && i < n; i++)
        if (w0[i - 1] > w0[i]) {
            fprintf(stderr, "%s, n %lld: not sorted\n", names[kind],
                    (long long)n);
            failures++;
            break;
        }
    free(w0);
}

/* The number of the kernel called name; KINDS when there is none. */
static int kind_of(const char *name)
{
    int kind = 0;
    while (kind < KINDS && strcmp(names[kind], name))
        kind++;
    return kind;
}

int main(void)
{
    char name[32];
    int sorts;
    i64 k, n, a[MAXA], *w = alloc(MAXN * 8);
    long cases = 0;
    while (scanf("%31s %d %" SCNd64, name, &sorts, &k) == 3) {
        int hooked = name[0] == '+', kind = kind_of(name + hooked);
        int ok = kind < KINDS && k >= hooked && k <= MAXA;
        for (i64 i = 0; ok && i < k; i++)
            ok = scanf("%" SCNd64, &a[i]) == 1;
        ok = ok && scanf("%" SCNd64, &n) == 1 && n >= 1 && n <= MAXN;
        for (i64 i = 0; ok && i < n; i++)
            ok = scanf("%" SCNd64, &w[i]) == 1;
        if (!ok) {
            fprintf(stderr, "case %ld (%s): bad input\n", cases + 1, name);
            return 2;
        }
        check(kind, w, n, a, sorts, hooked ? a[k - 1] : -1);
        cases++;
    }
    free(w);
    printf("%ld cases, %ld failures, digest %016" PRIx64 "\n", cases, failures,
           digest);
    return failures != 0;
}
