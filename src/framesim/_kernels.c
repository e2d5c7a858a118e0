/* Single-pass, in-place amplitude loops for framesim's state updates, and
 * the hybrid backend's gate loop over a packed Pauli frame.
 *
 * The state is 2**n complex doubles stored as interleaved (re, im) pairs;
 * bit j of an index is the value of qubit j.
 *
 * The Clifford loop computes every update of the form ca*I + cb*i**e*P
 * for a multi-qubit Pauli P and real ca and cb: rotations by any angle,
 * cos(t/2)*I - i*sin(t/2)*P, the measurement collapse (I +- P)/2 and Pauli
 * operators.  It applies each power of i as an element swap and a sign pattern
 * instead of a complex multiply, and walks the state in tiles of TILE
 * amplitudes.  The update pairs index k with k ^ x: the x bits inside a
 * tile only permute positions within it, the bits above pick the partner
 * tile.  Every tile is therefore read and written once, next to its
 * partner, whatever the weight of the Pauli operator.  Partners are
 * visited out of address order, which the hardware prefetchers do not
 * follow, so the loop prefetches the tiles it will visit next, one cache
 * line per line it updates.  The sign (-1)**parity(k & z) splits the same
 * way as the index, into one sign per tile and a per-position table built
 * once per call.  The loop holds two amplitudes per 32-byte vector, so the
 * partner of an amplitude is the same position of another vector, or for
 * odd x the other position; an exchange of the two halves of a vector
 * covers the second case.
 *
 * The two gate kernels after it serve fixed gates: the Hadamard gate on
 * one qubit, and a masked pair exchange that swaps pairs of amplitudes
 * (CX, SWAP and the flush's qubit relabelings) or multiplies a masked
 * subset by a power of i (Z, S, SDG and CZ).  Both walk contiguous runs of
 * amplitudes in address order, a cache line at a time where the runs are
 * shorter, and allocate nothing.
 *
 * The Clifford loop and the Hadamard loop are each compiled twice from one
 * body: a generic clone for any CPU, and on x86-64 a clone for AVX2 with
 * FMA, which holds a 32-byte vector in one register.  The library picks one
 * when it loads, from what the CPU reports, so one build runs on any
 * x86-64 and the build flags name no CPU.  The pair exchange only moves
 * amplitudes and gains nothing from a wider clone.
 *
 * Two passes then apply the part of a flush without a Hadamard part, which
 * maps each index k to A k ^ b, A an invertible GF(2) matrix, with a
 * quadratic phase (see framesim_affine).  The affine pass takes a matrix
 * that moves whole tiles: it relabels the tiles by following the cycles of
 * the tile map, with one tile of scratch, and permutes and phases each tile
 * inside the L1 cache; without a phase, as for the index map of a flush at
 * the origin frame, it only moves the amplitudes.  The shear pass adds to
 * the tile index a linear function of the position in the tile, in place,
 * moving whole cache lines: the tiles fall into groups of up to 4 that the
 * two lowest position bits reach, and the block of one line of each tile
 * of a group swaps with that of another group, permuted in registers.  It
 * then adds to each position a linear function of the tile index, group by
 * group, while the group is in the L1 cache.  The flush splits A into one affine
 * pass followed by one shear pass.  When the state is zero beyond its
 * first 2**d amplitudes, the flush runs those two passes on that prefix
 * alone, and a scatter then moves each of its amplitudes k to E k ^ b, E
 * an injective GF(2) map in echelon form, in place (see framesim_embed).
 *
 * The gate loop at the end runs a circuit's lowered gate stream on the
 * hybrid backend: Clifford gates update a bit-packed Pauli frame, and each
 * rotation looks up its axis in the frame and calls the Clifford loop on
 * the hybrid's register.  The hybrid tracks U P_A |phi>, U the frame's
 * Clifford and P_A |k> = |A k> an index map, A an invertible GF(2)
 * matrix, and phi is zero beyond its first 2**d amplitudes: the register
 * of d active qubits.  A frame image P acts on phi as P_A^dag P P_A, whose
 * Z letters at or above d act as +1 and are dropped.  If its X part has
 * bits at or above d, one qubit is activated first: CX gates from the
 * lowest such bit j clear the others and SWAP(j, d) moves j to bit d.
 * These gates act on qubits that are |0> in phi, so they change only A,
 * and d grows by one.  Each rotation then makes one pass over 2**max(d, 1)
 * amplitudes instead of 2**n (see reg_map).
 *
 * Built by _kernels.py with the system C compiler and loaded with ctypes.
 */
#include <math.h>
#include <stdint.h>
#include <time.h>

#define TILE_BITS 8
#define TILE (1 << TILE_BITS)
#define LINE 4 /* amplitudes per 64-byte cache line */

static inline void prefetch(const void *p)
{
    __builtin_prefetch(p, 1, 3);
}

/* Tile size for a state of n_amp amplitudes: TILE, or the whole state. */
static inline int tile_bits(int64_t n_amp)
{
    int b = 0;
    while (b < TILE_BITS && ((int64_t)1 << (b + 1)) <= n_amp)
        b++;
    return b;
}

/* The gate loops hold each amplitude as one 16-byte vector of (re, im),
 * as the generic clone of the Clifford loop does with each half of its
 * vectors.  Multiplying by a power of i is then an element swap followed
 * by a pattern of signs, with no complex multiply. */
typedef double v2d __attribute__((vector_size(16)));

/* i**e * v = swap(v) * TURN[e] for odd e, and v * TURN[e] for even e */
static const v2d TURN[4] = {{1, 1}, {-1, 1}, {-1, -1}, {1, -1}};

/* The Clifford loop holds two amplitudes, (re0, im0, re1, im1), in one
 * 32-byte vector.  numpy aligns arrays to 16 bytes only, so the type
 * promises no more.  No function takes or returns one by value, as the
 * calling convention for it differs between the clones (GCC warns): the
 * helpers are macros or take pointers. */
typedef double v4d __attribute__((vector_size(32), aligned(16)));
#define LINE2 (LINE / 2) /* vectors per 64 bytes */

/* Element order of a partner amplitude b: as it is, or swapped (s, b with
 * re and im swapped). */
enum { KEEP, SWAP };

#define ORDER(b, s, how) ((how) == KEEP ? (b) : (s))

/* *d <- ca*a + *p * order(part(b)) for vectors a and b, with *p the pattern
 * of position d; part(b) is b with its two amplitudes exchanged if flip is
 * set.  A clone with 32-byte registers (wide) computes it in one piece; the
 * generic clone computes each 16-byte half on its own, as GCC would
 * otherwise assemble every 32-byte value in a stack slot. */
#define UPDATE(d, a, b, p, ca, flip, how, wide)                               \
    do {                                                                      \
        if (wide) {                                                           \
            const v4d b_ = (flip) ? (v4d){(b)[2], (b)[3], (b)[0], (b)[1]}     \
                                  : (b),                                      \
                      s_ = {b_[1], b_[0], b_[3], b_[2]};                      \
            *(d) = (ca) * (a) + *(p) * ORDER(b_, s_, how);                    \
        } else {                                                              \
            v2d *d_ = (v2d *)(d);                                             \
            const v2d *p_ = (const v2d *)(p);                                 \
            for (int h_ = 0; h_ < 2; h_++) {                                  \
                const int g_ = 2 * (h_ ^ (flip));                             \
                const v2d a_ = {(a)[2 * h_], (a)[2 * h_ + 1]},                \
                          b_ = {(b)[g_], (b)[g_ + 1]}, s_ = {b_[1], b_[0]};   \
                d_[h_] = (ca) * a_ + p_[h_] * ORDER(b_, s_, how);             \
            }                                                                 \
        }                                                                     \
    } while (0)

/* *a <- ca*a + *pa * order(part(b));  *b <- ca*b + *pb * order(part(a)) */
static inline __attribute__((always_inline)) void
turn_pair(v4d *a, v4d *b, const v4d *pa, const v4d *pb, double ca, int flip,
          int how, int wide)
{
    const v4d va = *a, vb = *b;
    UPDATE(a, va, vb, pa, ca, flip, how, wide);
    UPDATE(b, vb, va, pb, ca, flip, how, wide);
}

/* turn_pair on (t[j], u[j ^ m]) for j < len, a multiple of LINE2, for two
 * disjoint blocks t and u, prefetching the blocks nt and nu visited next.
 * The vectors of 64 bytes of t and their partners in u are all loaded
 * before any is stored: t and u often sit a multiple of 4 KiB apart, and a
 * load that follows a store to the same address modulo 4 KiB waits for
 * that store. */
static inline __attribute__((always_inline)) void
turn_blocks(v4d *restrict t, v4d *restrict u, const v4d *pt, const v4d *pu,
            const v4d *nt, const v4d *nu, int64_t len, int64_t m, double ca,
            int flip, int how, int wide)
{
    for (int64_t j = 0; j < len; j += LINE2) {
        v4d a[LINE2], b[LINE2];
        prefetch(nt + j);
        prefetch(nu + j);
        for (int64_t i = 0; i < LINE2; i++) {
            a[i] = t[j + i];
            b[i] = u[(j + i) ^ m];
        }
        for (int64_t i = 0; i < LINE2; i++) {
            const int64_t k = (j + i) ^ m;
            UPDATE(t + j + i, a[i], b[i], pt + j + i, ca, flip, how, wide);
            UPDATE(u + k, b[i], a[i], pu + k, ca, flip, how, wide);
        }
    }
}

/* The traversal of framesim_clifford for one element order `how` and
 * flip = x & 1, which the caller passes as constants so that each
 * combination gets a loop of its own, as each clone passes its `wide`.
 * Amplitude k sits in vector k >> 1, and its partner k ^ x in vector
 * (k >> 1) ^ (x >> 1), at the other position of it if x is odd.
 * pat[o][v] is the pattern of vector v of a tile whose sign O(t) (see
 * framesim_clifford) is (-1)**o. */
static inline __attribute__((always_inline)) void
turn_walk(v4d *amp, int64_t n_amp, int b, uint64_t x, uint64_t z,
          v4d (*pat)[TILE / 2], double ca, int flip, int how, int wide)
{
    const int64_t len = (int64_t)1 << (b - 1); /* vectors per tile */
    const int64_t n_tiles = n_amp >> b;
    const uint64_t xv = (x & (((uint64_t)1 << b) - 1)) >> 1;
    const uint64_t xt = x >> b, zt = z >> b;
#define O(t) __builtin_parityll((uint64_t)(t) & zt)

    if (x < 2) {
        /* x = 0 pairs each amplitude with itself, x = 1 with the other
         * one of its vector */
        for (int64_t t = 0; t < n_tiles; t++) {
            v4d *restrict r = amp + t * len;
            const v4d *pt = pat[O(t)];
            for (int64_t j = 0; j < len; j++) {
                const v4d a = r[j];
                UPDATE(r + j, a, a, pt + j, ca, flip, how, wide);
            }
        }
        return;
    }

    if (xt == 0) {
        /* partners share a tile.  With q the highest bit of xv, the blocks
         * of 2**q vectors with bit q clear pair with the blocks right
         * above them through j -> j ^ mx. */
        const int q = 63 - __builtin_clzll(xv);
        const int64_t half = (int64_t)1 << q, mx = (int64_t)(xv ^ (uint64_t)half);
        for (int64_t t = 0; t < n_tiles; t++) {
            v4d *tile = amp + t * len;
            const v4d *next = t + 1 < n_tiles ? tile + len : tile;
            const v4d *pt = pat[O(t)];
            if (half >= LINE2) {
                for (int64_t blk = 0; blk < len; blk += 2 * half)
                    turn_blocks(tile + blk, tile + blk + half, pt + blk,
                                pt + blk + half, next + blk, next + blk + half,
                                half, mx, ca, flip, how, wide);
                continue;
            }
            /* x is 2 or 3: vector 2i pairs with vector 2i + 1 */
            for (int64_t j = 0; j < len; j += 2) {
                prefetch(next + j);
                turn_pair(tile + j, tile + j + 1, pt + j, pt + j + 1, ca, flip, how,
                          wide);
            }
        }
        return;
    }

    /* partner tiles differ: pair each tile t with bit tp clear with t ^ xt */
    const int64_t tp = (int64_t)(xt & -xt);
    for (int64_t t = 0; t < n_tiles; t++) {
        if (t & tp)
            continue;
        const int64_t t2 = t ^ (int64_t)xt;
        int64_t next = (t + 1) & tp ? t + 1 + tp : t + 1;
        if (next >= n_tiles)
            next = t;
        turn_blocks(amp + t * len, amp + t2 * len, pat[O(t)], pat[O(t2)],
                    amp + next * len, amp + (next ^ (int64_t)xt) * len, len,
                    (int64_t)xv, ca, flip, how, wide);
    }
#undef O
}

/* turn_walk for the flip of x */
static inline __attribute__((always_inline)) void
turn_walk_x(v4d *amp, int64_t n_amp, int b, uint64_t x, uint64_t z,
            v4d (*pat)[TILE / 2], double ca, int how, int wide)
{
    if (x & 1)
        turn_walk(amp, n_amp, b, x, z, pat, ca, 1, how, wide);
    else
        turn_walk(amp, n_amp, b, x, z, pat, ca, 0, how, wide);
}

/* The body of framesim_clifford, compiled once per clone; wide is set in
 * the clone with 32-byte registers */
static inline __attribute__((always_inline)) void
clifford(double *amp_, int64_t n_amp, uint64_t x, uint64_t z, double ca,
         double cb, int e0, int wide)
{
    v4d *amp = (v4d *)amp_;
    const int b = tile_bits(n_amp);
    const int64_t lv = (int64_t)1 << (b - 1);

    /* the order is the same everywhere, and pat[0] holds cb * TURN[e0] *
     * (-1)**parity(k & z) for the amplitudes k of a tile, built by
     * doubling; pat[1] = -pat[0] serves the tiles of odd sign */
    v4d pat[2][TILE / 2];
    const v2d c = TURN[e0 & 3] * cb, c1 = z & 1 ? -c : c;
    pat[0][0] = (v4d){c[0], c[1], c1[0], c1[1]};
    for (int64_t h = 1; h < lv; h <<= 1) {
        const double s = (z & (uint64_t)(2 * h)) ? -1.0 : 1.0;
        for (int64_t j = 0; j < h; j++)
            pat[0][h + j] = pat[0][j] * s;
    }
    for (int64_t j = 0; j < lv; j++)
        pat[1][j] = -pat[0][j];
    if (e0 & 1)
        turn_walk_x(amp, n_amp, b, x, z, pat, ca, SWAP, wide);
    else
        turn_walk_x(amp, n_amp, b, x, z, pat, ca, KEEP, wide);
}

/* The body of framesim_apply_h, compiled once per clone */
static inline __attribute__((always_inline)) void
apply_h(double *amp, int64_t n_amp, int q)
{
    const double r = 0.70710678118654752440; /* 1/sqrt(2) */
    if (q < 2 && n_amp >= LINE) {
        const int64_t h = (int64_t)1 << q, j1 = h == 1 ? 2 : 1;
        for (v2d *l = (v2d *)amp; l < (v2d *)amp + n_amp; l += LINE) {
            const v2d a0 = l[0], a1 = l[h], b0 = l[j1], b1 = l[j1 + h];
            l[0] = r * (a0 + a1);
            l[h] = r * (a0 - a1);
            l[j1] = r * (b0 + b1);
            l[j1 + h] = r * (b0 - b1);
        }
        return;
    }
    const int64_t half = (int64_t)2 << q; /* doubles per run */
    for (int64_t blk = 0; blk < 2 * n_amp; blk += 2 * half) {
        double *restrict lo = amp + blk;
        double *restrict hi = lo + half;
        for (int64_t j = 0; j < half; j++) {
            const double a0 = lo[j], a1 = hi[j];
            lo[j] = r * (a0 + a1);
            hi[j] = r * (a0 - a1);
        }
    }
}

/* The two clones of the Clifford and Hadamard loops (see the head of this
 * file) */
static void clifford_generic(double *amp, int64_t n_amp, uint64_t x, uint64_t z,
                             double ca, double cb, int e0)
{
    clifford(amp, n_amp, x, z, ca, cb, e0, 0);
}

static void apply_h_generic(double *amp, int64_t n_amp, int q)
{
    apply_h(amp, n_amp, q);
}

static int use_avx2; /* the clone in use: 1 for AVX2, 0 for generic */

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) static void
clifford_avx2(double *amp, int64_t n_amp, uint64_t x, uint64_t z, double ca,
              double cb, int e0)
{
    clifford(amp, n_amp, x, z, ca, cb, e0, 1);
}

__attribute__((target("avx2,fma"))) static void
apply_h_avx2(double *amp, int64_t n_amp, int q)
{
    apply_h(amp, n_amp, q);
}
#endif

__attribute__((constructor)) static void pick_clone(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    use_avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
}

/* Select a clone for the tests: the generic one for avx2 = 0, the AVX2 one
 * for avx2 = 1 if the CPU has it; avx2 < 0 keeps the clone in use.  Returns
 * 1 if the AVX2 clone is in use after the call, else 0. */
int framesim_use_avx2(int avx2)
{
    if (avx2 >= 0) {
        pick_clone();
        use_avx2 = use_avx2 && avx2;
    }
    return use_avx2;
}

/* amp[k] <- ca*amp[k] + cb * i**e0 * (-1)**parity(k & z) * amp[k ^ x]
 *
 * with real ca and cb: ca*I + cb*i**e0*P for every Pauli operator P
 * (rotations by any angle, turns by multiples of pi/2, the measurement
 * collapse and P itself, ca = 0).  x may be 0, the diagonal case; x and z
 * must be below n_amp, a power of two >= 2, and amp must be aligned to 16
 * bytes.
 *
 * The traversal visits each pair {k, k ^ x} once.  The factor cb * i**e0 *
 * (-1)**parity(k & z) splits into a per-position part and a tile sign
 * (-1)**O(t), O(t) = parity(t & z_hi), z_hi being the bits of z above the
 * tile.  The power of i is applied as an element order (see `ORDER`), the
 * same for every amplitude, and a pattern of signs scaled by cb, from a
 * table per tile sign. */
void framesim_clifford(double *amp, int64_t n_amp, uint64_t x, uint64_t z,
                       double ca, double cb, int e0)
{
#if defined(__x86_64__)
    if (use_avx2) {
        clifford_avx2(amp, n_amp, x, z, ca, cb, e0);
        return;
    }
#endif
    clifford_generic(amp, n_amp, x, z, ca, cb, e0);
}

/* amp[k0], amp[k1] <- (a0 + a1)/sqrt(2), (a0 - a1)/sqrt(2)
 *
 * for every pair k0, k1 = k0 | 2**q with bit q of k0 clear: the Hadamard
 * gate on qubit q.  The pairs form two runs of 2**q amplitudes per block of
 * 2**(q+1).  H is real, so it scales the real and imaginary parts alike and
 * the loop runs over doubles; for q = 0 and 1, where each cache line holds
 * two whole pairs, it takes a line per iteration instead. */
void framesim_apply_h(double *amp, int64_t n_amp, int q)
{
#if defined(__x86_64__)
    if (use_avx2) {
        apply_h_avx2(amp, n_amp, q);
        return;
    }
#endif
    apply_h_generic(amp, n_amp, q);
}

/* i**e * v */
static inline v2d turn(v2d v, int e)
{
    return (e & 1 ? (v2d){v[1], v[0]} : v) * TURN[e];
}

/* *a <-> *b, or *a <- i**e * *a when x is 0 (then b is a) */
static inline void exchange(v2d *a, v2d *b, uint64_t x, int e)
{
    const v2d t = *a;
    if (x == 0) {
        *a = turn(t, e);
        return;
    }
    *a = *b;
    *b = t;
}

/* For every k with (k & mask) == val, swap amp[k] with amp[k ^ x]; when x
 * is 0, multiply amp[k] by i**e instead (e in 0..3).  val and x must be submasks of mask, so
 * that a partner k ^ x (x nonzero) never matches val itself and each pair
 * is visited once, and mask must be below n_amp, a power of two.
 *
 * The matching indices form runs of len contiguous amplitudes, len being
 * the lowest set bit of mask (the whole state when mask is 0), and x moves
 * a run as a whole.  The run starts with the bits of `fixed` clear are
 * counted in order by adding one with those bits forced set.  Runs of one
 * or two amplitudes (bit 0 or 1 of mask set) are walked a cache line at a
 * time instead, taking the one or two matching positions of each line. */
void framesim_pair_exchange(double *amp_, int64_t n_amp, uint64_t mask,
                            uint64_t val, uint64_t x, int e)
{
    v2d *amp = (v2d *)amp_;
    const uint64_t len = mask ? mask & -mask : (uint64_t)n_amp;
    if (len < LINE && n_amp >= LINE) {
        /* the second matching position of a line is the first plus the
         * low bit that mask leaves free, if it leaves one */
        const uint64_t lo = LINE - 1, fixed = mask | lo, f = lo & ~mask;
        for (uint64_t s = 0; s < (uint64_t)n_amp; s = ((s | fixed) + 1) & ~fixed) {
            v2d *a = amp + (s | val);
            v2d *b = amp + ((s | val) ^ x);
            exchange(a, b, x, e);
            if (f)
                exchange(a + f, b + f, x, e);
        }
        return;
    }
    const uint64_t fixed = mask | (len - 1);
    for (uint64_t s = 0; s < (uint64_t)n_amp; s = ((s | fixed) + 1) & ~fixed) {
        v2d *restrict a = amp + (s | val);
        if (x == 0) {
            for (uint64_t j = 0; j < len; j++)
                a[j] = turn(a[j], e);
            continue;
        }
        v2d *restrict b = amp + ((s | val) ^ x);
        for (uint64_t j = 0; j < len; j++) {
            const v2d t = a[j];
            a[j] = b[j];
            b[j] = t;
        }
    }
}


/* The two passes of the flush's Hadamard-free remainder.  An index k
 * splits into its tile t = k >> b and its position l = k & (2**b - 1) in
 * the tile, b being tile_bits. */

static inline int top_bit(uint64_t v)
{
    return 63 - __builtin_clzll(v);
}

/* The XOR of cols[j] over the set bits j of u: the image of u under the
 * GF(2) matrix with columns cols. */
static inline uint64_t xor_cols(const uint64_t *cols, uint64_t u)
{
    uint64_t r = 0;
    for (; u; u &= u - 1)
        r ^= cols[__builtin_ctzll(u)];
    return r;
}

/* A basis of a span of GF(2) vectors in echelon form: for each set bit p of
 * top, vec[p] is the basis vector whose top bit is p, and sum[p] the set of
 * the vectors added so far, numbered in the order of their addition, whose
 * XOR it is. */
typedef struct {
    uint64_t vec[64], sum[64], top;
    int dim;
} echelon;

/* v reduced by the basis e; *sum is the set of added vectors whose XOR was
 * taken off, so that v is that XOR when the result is 0 */
static uint64_t reduce(const echelon *e, uint64_t v, uint64_t *sum)
{
    uint64_t s = 0;
    while (v && e->top >> top_bit(v) & 1) {
        const int p = top_bit(v);
        v ^= e->vec[p];
        s ^= e->sum[p];
    }
    *sum = s;
    return v;
}

/* Add v to the basis e as vector number e->dim; returns 0, adding nothing,
 * if v is in the span already. */
static int add_vector(echelon *e, uint64_t v)
{
    uint64_t s;
    v = reduce(e, v, &s);
    if (!v)
        return 0;
    e->vec[top_bit(v)] = v;
    e->sum[top_bit(v)] = s ^ (uint64_t)1 << e->dim++;
    e->top |= (uint64_t)1 << top_bit(v);
    return 1;
}

/* inv <- the columns of the inverse of the GF(2) matrix with the nb
 * columns cols, each below 2**nb; returns 0 if that matrix is singular. */
static int invert_cols(const uint64_t *cols, int nb, uint64_t *inv)
{
    echelon e = {.dim = 0};
    for (int j = 0; j < nb; j++)
        if ((nb < 64 && cols[j] >> nb) || !add_vector(&e, cols[j]))
            return 0;
    for (int i = 0; i < nb; i++)
        reduce(&e, (uint64_t)1 << i, inv + i);
    return 1;
}

/* 2 * parity(v) for v < 256, built when the library loads: a lookup is
 * cheaper than __builtin_parity where the build names no CPU with popcnt */
static uint8_t PARITY2[256];

__attribute__((constructor)) static void fill_parity(void)
{
    for (int v = 1; v < 256; v++)
        PARITY2[v] = (uint8_t)(PARITY2[v >> 1] ^ (2 * (v & 1)));
}

/* The per-tile-bit parts of an affine pass (see framesim_affine): for tile
 * bit j, the image tile fwd and its inverse inv, the in-tile offset off it
 * adds, the in-tile mask xc of its phase pairs, its tile mask quad of
 * them, and its phase lin. */
typedef struct {
    uint64_t fwd[64], inv[64], off[64], xc[64], quad[64];
    unsigned lin[64];
} tile_parts;

/* i**e * a = TURN_RE[e] * a + TURN_IM[e] * (a with re and im swapped),
 * which, unlike turn(), takes no branch on e */
static const v2d TURN_RE[4] = {{1, 1}, {0, 0}, {-1, -1}, {0, 0}};
static const v2d TURN_IM[4] = {{0, 0}, {-1, 1}, {0, 0}, {1, -1}};

/* dst[perm[l] ^ off(u)] <- i**e(u, l) * src[l] for the positions l of
 * tile u, with e(u, l) = lin(u) + ql[l] + 2*parity(xc(u) & l).  Without a
 * phase (phased clear, every e(u, l) being 0) it only moves them, except
 * in a tile of fewer than two cache lines. */
static void map_tile(v2d *restrict dst, const v2d *restrict src, const v2d *next,
                     int64_t len, const uint8_t *perm, const uint8_t *ql,
                     const tile_parts *tp, uint64_t u, int phased)
{
    uint64_t o = 0, y = 0;
    unsigned c = 0;
    for (uint64_t r = u; r; r &= r - 1) {
        const int j = __builtin_ctzll(r);
        o ^= tp->off[j];
        y ^= tp->xc[j];
        c += tp->lin[j] + (unsigned)__builtin_popcountll(tp->quad[j] & u);
    }
    if (!phased && len >= 2 * LINE) {
        /* two lines of src are loaded before any is stored, as in
         * turn_blocks; a smaller tile takes the loop below */
        for (int64_t l = 0; l < len; l += 2 * LINE) {
            v2d a[2 * LINE];
            prefetch(next + l);
            prefetch(next + l + LINE);
            for (int j = 0; j < 2 * LINE; j++)
                a[j] = src[l + j];
            for (int j = 0; j < 2 * LINE; j++)
                dst[perm[l + j] ^ o] = a[j];
        }
        return;
    }
    for (int64_t l = 0; l < len; l++) {
        if (l % LINE == 0)
            prefetch(next + l);
        const unsigned e = (c + ql[l] + PARITY2[y & (uint64_t)l]) & 3;
        const v2d a = src[l];
        dst[perm[l] ^ o] = TURN_RE[e] * a + TURN_IM[e] * (v2d){a[1], a[0]};
    }
}

enum { AFFINE_OK, AFFINE_SINGULAR, AFFINE_ASYMMETRIC };

/* amp[G k ^ offset] <- i**q(k) * amp[k] for every index k
 *
 * with q(k) = sum over the set bits i of k of diag[i] + popcount(cross[i] &
 * k), mod 4.  G is the GF(2) matrix whose column i, the image of bit i, is
 * cols[i]; it must be invertible and map positions to positions (cols[i]
 * below 2**b for i < b), so that it moves whole tiles: tile t goes to tile
 * G_tt t ^ (offset >> b), with its positions permuted by the low part of G
 * and shifted by an offset that depends on t.  cross must be symmetric with
 * a clear diagonal.  n_amp is a power of two 2**n, the masks are below it,
 * and seen is a zeroed scratch of one bit per tile.
 *
 * The tiles are relabeled by following the cycles of the tile map
 * backwards: the first tile of a cycle is copied aside, then each tile of
 * the cycle receives its preimage, permuted and phased, and the tile whose
 * preimage is the first one receives the copy.  Each tile is read and
 * written once, permuted inside the L1 cache, and the loop prefetches the
 * tile it reads next.  When every diag and cross entry is 0, q is 0 and the
 * tiles are only moved, with no lookup of a power of i and no multiply, as
 * the index map of a flush at the origin frame is.  Returns AFFINE_SINGULAR
 * or AFFINE_ASYMMETRIC, leaving amp as it was, if G or cross is not as
 * required, else AFFINE_OK. */
int framesim_affine(double *amp_, int64_t n_amp, const uint64_t *cols, uint64_t offset,
                    const uint8_t *diag, const uint64_t *cross, uint8_t *seen)
{
    v2d *amp = (v2d *)amp_;
    const int n = top_bit((uint64_t)n_amp), b = tile_bits(n_amp), nb = n - b;
    const int64_t len = (int64_t)1 << b;
    const uint64_t lo = (uint64_t)len - 1, n_tiles = (uint64_t)n_amp >> b;

    int phased = 0;
    for (int i = 0; i < n; i++) {
        phased |= (diag[i] & 3) || cross[i];
        if (cross[i] >> i & 1)
            return AFFINE_ASYMMETRIC;
        for (int j = 0; j < i; j++)
            if (((cross[i] >> j) ^ (cross[j] >> i)) & 1)
                return AFFINE_ASYMMETRIC;
    }
    /* the permutation and phase of the positions, built by doubling */
    uint8_t perm[TILE], ql[TILE];
    uint64_t hit[TILE / 64] = {0};
    perm[0] = (uint8_t)(offset & lo);
    ql[0] = 0;
    for (int i = 0; i < b; i++) {
        if (cols[i] & ~lo)
            return AFFINE_SINGULAR;
        const int64_t h = (int64_t)1 << i;
        for (int64_t l = 0; l < h; l++) {
            perm[h + l] = (uint8_t)(perm[l] ^ cols[i]);
            ql[h + l] = (uint8_t)((ql[l] + diag[i]
                                   + 2 * __builtin_parityll(cross[i] & (uint64_t)l)) & 3);
        }
    }
    for (int64_t l = 0; l < len; l++) {
        if (hit[perm[l] >> 6] >> (perm[l] & 63) & 1)
            return AFFINE_SINGULAR;
        hit[perm[l] >> 6] |= (uint64_t)1 << (perm[l] & 63);
    }
    tile_parts tp;
    for (int j = 0; j < nb; j++) {
        tp.fwd[j] = cols[b + j] >> b;
        tp.off[j] = cols[b + j] & lo;
        tp.xc[j] = cross[b + j] & lo;
        tp.quad[j] = cross[b + j] >> b;
        tp.lin[j] = diag[b + j] & 3u;
    }
    if (!invert_cols(tp.fwd, nb, tp.inv))
        return AFFINE_SINGULAR;

    const uint64_t t0 = offset >> b;
    v2d first[TILE];
    for (uint64_t s = 0; s < n_tiles; s++) {
        if (seen[s >> 3] >> (s & 7) & 1)
            continue;
        for (int64_t l = 0; l < len; l++)
            first[l] = amp[s * (uint64_t)len + (uint64_t)l];
        for (uint64_t cur = s;;) {
            seen[cur >> 3] |= (uint8_t)(1u << (cur & 7));
            const uint64_t u = xor_cols(tp.inv, cur ^ t0); /* the tile mapped to cur */
            const uint64_t v = u == s ? s + 1 : xor_cols(tp.inv, u ^ t0); /* read next */
            map_tile(amp + cur * (uint64_t)len, u == s ? first : amp + u * (uint64_t)len,
                     amp + (v < n_tiles ? v : s) * (uint64_t)len, len, perm, ql, &tp, u, phased);
            if (u == s)
                break;
            cur = u;
        }
    }
    return AFFINE_OK;
}

/* The line blocks of the shear pass (see framesim_shear): a block is the
 * cache line at position `at` of each of the nw tiles t[x] of a group.
 * Every amplitude at tile x, position at + j of the block of the tiles t
 * goes to tile x ^ y[j] ^ s, position at + j, of the block of the tiles u,
 * and the other way round; t and u may be the same block.  Each position j
 * is loaded from every tile before it is stored to any, which holds at
 * most eight amplitudes in registers. */
static inline __attribute__((always_inline)) void
swap_blocks(v2d *const *t, v2d *const *u, int64_t at, const unsigned *y, unsigned s,
            int nw)
{
    for (int j = 0; j < LINE; j++) {
        v2d a[4], c[4];
        const unsigned k = y[j] ^ s;
        for (int x = 0; x < nw; x++) {
            a[x] = t[x][at + j];
            c[x] = u[x][at + j];
        }
        for (int x = 0; x < nw; x++) {
            t[x ^ k][at + j] = c[x];
            u[x ^ k][at + j] = a[x];
        }
    }
}

#define LINES (TILE / LINE) /* cache lines per tile */

/* The tables of a shear pass on tiles of TILE amplitudes (see
 * framesim_shear).  V, the span of the columns B e_i, has a basis whose
 * first dw vectors span W = span(B e0, B e1), the tile offsets within a
 * line; the groups are the cosets of W.  Tile rep ^ qspan[i] ^ wspan[x]
 * is tile x of group i of the coset rep ^ V, rep having none of the bits
 * `pivots`.  Line l of group i pairs with line l of group i ^ g[l], with
 * the offset s[l]: B (LINE l) = qspan[g[l]] ^ wspan[s[l]], and B j =
 * wspan[y[j]] for the positions j < LINE in a line. */
typedef struct {
    uint64_t pivots, wspan[4], qspan[LINES], nq;
    unsigned y[LINE], s[LINES], g[LINES], gtop[LINES];
} shear_plan;

/* Tile x of group i of the coset rep ^ V (see shear_plan). */
static inline uint64_t group_tile(const shear_plan *p, uint64_t rep, uint64_t i, int x)
{
    return rep ^ p->qspan[i] ^ p->wspan[x];
}

/* a[l] <-> a[l ^ o] for the positions l of a tile, o nonzero: the lower
 * shear of one tile, a cache line or a pair of lines at a time. */
static void lower_shear(v2d *a, uint64_t o)
{
    const int64_t ol = (int64_t)(o & ~(uint64_t)(LINE - 1)), oj = (int64_t)(o & (LINE - 1));
    if (!ol) {
        for (int64_t l = 0; l < TILE; l += LINE) {
            v2d c[LINE];
            for (int j = 0; j < LINE; j++)
                c[j] = a[l + j];
            for (int j = 0; j < LINE; j++)
                a[l + (j ^ oj)] = c[j];
        }
        return;
    }
    /* the lines l with bit `skip` clear, counted by adding LINE with that
     * bit forced set */
    const int64_t skip = (int64_t)1 << top_bit((uint64_t)ol);
    for (int64_t l = 0; l < TILE; l = ((l | skip) + LINE) & ~skip) {
        v2d c[LINE], d[LINE];
        for (int j = 0; j < LINE; j++) {
            c[j] = a[l + j];
            d[j] = a[(l ^ ol) + j];
        }
        for (int j = 0; j < LINE; j++) {
            a[l + (j ^ oj)] = d[j];
            a[(l ^ ol) + (j ^ oj)] = c[j];
        }
    }
}

/* The walk of framesim_shear for groups of nw tiles, which the caller
 * passes as a constant.  Line l of group i pairs with line l of group
 * i ^ g[l], and the pair is moved once, at the lower of the two groups:
 * at group i when the top bit of g[l] is clear in i.  The partners come
 * out of address order, so the loop prefetches those of the line AHEAD
 * lines on. */
#define AHEAD 2

static inline __attribute__((always_inline)) void
shear_walk(v2d *amp, uint64_t n_tiles, const uint64_t *down, const shear_plan *p, int nw)
{
    for (uint64_t rep = 0; rep < n_tiles; rep = ((rep | p->pivots) + 1) & ~p->pivots)
        for (uint64_t i = 0; i < p->nq; i++) {
            v2d *t[4];
            for (int x = 0; x < nw; x++)
                t[x] = amp + group_tile(p, rep, i, x) * TILE;
            for (int l = 0; l < LINES; l++) {
                const int la = l + AHEAD < LINES ? l + AHEAD : l;
                if (p->g[la] && !(i & p->gtop[la]))
                    for (int x = 0; x < nw; x++)
                        prefetch(amp + group_tile(p, rep, i ^ p->g[la], x) * TILE + la * LINE);
                const unsigned g = p->g[l];
                if (i & p->gtop[l])
                    continue; /* done with group i ^ g, which came first */
                if (!g && nw == 1)
                    continue; /* the block maps onto itself as it is */
                v2d *u[4];
                for (int x = 0; x < nw; x++)
                    u[x] = amp + group_tile(p, rep, i ^ g, x) * TILE;
                swap_blocks(t, u, l * LINE, p->y, p->s[l], nw);
            }
            /* every line of the group is done: the lower shear */
            for (int x = 0; x < nw; x++) {
                const uint64_t o = xor_cols(down, group_tile(p, rep, i, x));
                if (o)
                    lower_shear(t[x], o);
            }
        }
}

/* amp[(t ^ B l, l ^ M (t ^ B l))] <- amp[(t, l)] for every index k = (t, l)
 *
 * with B l the XOR of up[i] >> b over the set bits i of the position l,
 * and M t the XOR of down[j] over the set bits j of the tile index t: the
 * upper shear t ^= B l followed by the lower shear l ^= M t.  The b masks
 * up (b = tile_bits) must have no bit below b and lie below n_amp, a power
 * of two, and the n - b masks down must lie below 2**b; returns 1, leaving
 * amp as it was, if one does not, else 0.
 *
 * The upper shear moves whole cache lines between tiles.  Position
 * LINE l + j, the amplitude j of line l, adds B j, in W = span(B e0, B e1),
 * to its tile, and B (LINE l) as well.  So the loop groups the tiles into
 * the cosets of W, of 4 tiles, or 2 or 1 when W is smaller, and the block
 * of line l of a group, one line of each of its tiles, goes to the block
 * of line l of one group: amplitude j of its tile x to tile x ^ y_j ^ s,
 * y_j standing for B j and s for the part of B (LINE l) in W.  The upper
 * shear being its own inverse, two such blocks swap, or one maps onto
 * itself; either way in registers, each line read and written whole.  The
 * loop walks the groups of a coset of V, the span of B (at most 2**b
 * tiles: 1 MiB, inside the L2 cache), in an order in which each pair of
 * blocks comes up once.  Once a group has all its lines, the lower shear
 * permutes the positions of its tiles, a line or a pair of lines at a
 * time, while the lines the group has just moved are still in the L1
 * cache. */
int framesim_shear(double *amp_, int64_t n_amp, const uint64_t *up, const uint64_t *down)
{
    v2d *amp = (v2d *)amp_;
    const int b = tile_bits(n_amp), nb = top_bit((uint64_t)n_amp) - b;
    const uint64_t lo = ((uint64_t)1 << b) - 1, n_tiles = (uint64_t)n_amp >> b;
    for (int j = 0; j < nb; j++)
        if (down[j] & ~lo)
            return 1;
    for (int i = 0; i < b; i++)
        if (up[i] & lo)
            return 1;
    if (!nb)
        return 0; /* one tile, which neither shear moves */

    /* a basis of V from the columns of B, in their order: the first dw
     * vectors added span W, and each column has its coordinates coord[i]
     * in it, those below dw in W */
    echelon e = {.dim = 0};
    uint64_t added[TILE_BITS], coord[TILE_BITS];
    int dw = 0;
    for (int i = 0; i < TILE_BITS; i++) {
        if (add_vector(&e, up[i] >> b))
            added[e.dim - 1] = up[i] >> b;
        if (i == 1)
            dw = e.dim;
    }
    for (int i = 0; i < TILE_BITS; i++)
        reduce(&e, up[i] >> b, coord + i);

    shear_plan p;
    const int nw = 1 << dw;
    p.pivots = e.top;
    p.nq = (uint64_t)1 << (e.dim - dw);
    p.wspan[0] = p.qspan[0] = 0;
    for (int k = 0; k < dw; k++)
        for (int x = 0; x < 1 << k; x++)
            p.wspan[(1 << k) + x] = p.wspan[x] ^ added[k];
    for (int k = 0; k < e.dim - dw; k++)
        for (int i = 0; i < 1 << k; i++)
            p.qspan[(1 << k) + i] = p.qspan[i] ^ added[dw + k];
    for (int j = 0; j < LINE; j++)
        p.y[j] = (unsigned)((j & 1 ? coord[0] : 0) ^ (j & 2 ? coord[1] : 0));
    /* the coordinates of B (LINE l): position bits 0 and 1 pick the place
     * in a line of LINE = 4, bits 2 and up the line */
    uint64_t c[LINES];
    c[0] = 0;
    for (int k = 0; k < TILE_BITS - 2; k++)
        for (int l = 0; l < 1 << k; l++)
            c[(1 << k) + l] = c[l] ^ coord[2 + k];
    for (int l = 0; l < LINES; l++) {
        p.s[l] = (unsigned)(c[l] & (uint64_t)(nw - 1));
        p.g[l] = (unsigned)(c[l] >> dw);
        p.gtop[l] = p.g[l] ? 1u << top_bit(p.g[l]) : 0;
    }
    if (dw == 2)
        shear_walk(amp, n_tiles, down, &p, 4);
    else if (dw == 1)
        shear_walk(amp, n_tiles, down, &p, 2);
    else
        shear_walk(amp, n_tiles, down, &p, 1);
    return 0;
}

/* amp[E k ^ off] <- amp[k] for k < 2**d, the other amplitudes below 2**d
 * set to 0, those at or above it kept where no k lands, in place
 *
 * with E k the XOR of cols[i] over the set bits i of k.  The caller passes
 * columns in echelon form: the top bit p_i of cols[i] rises with i, and
 * cols[i] has no other column's top bit; off has no top bit of any
 * column; and d is below n, the masks below 2**n.  The flush then scatters
 * the register of a state zero beyond 2**d into the whole state.
 *
 * E k ^ off >= k for every k < 2**d, so a walk from k = 2**d - 1 down reads
 * each amplitude before a write reaches it, and E being one to one, no
 * two writes meet.  Bit p_i of E k ^ off is bit i of k, as E is the
 * identity on the pivot bits and off has none.  For k > 0 with top bit t,
 * bit p_t of E k ^ off is set, so if p_t > t, E k ^ off >= 2**p_t > k.
 * Else p_i = i for every i <= t, as the p_i rise, so bits 0..t of
 * E k ^ off are those of k.  E k steps down with one XOR:
 * k - 1 = k ^ (2**(c+1) - 1), c the count of trailing zeros of k, so
 * E (k - 1) = E k ^ cols[0] ^ ... ^ cols[c]. */
void framesim_embed(double *amp_, int d, const uint64_t *cols, uint64_t off)
{
    v2d *amp = (v2d *)amp_;
    uint64_t sum[64], e = 0; /* sum[c] = cols[0] ^ ... ^ cols[c] */
    for (int i = 0; i < d; i++)
        sum[i] = e ^= cols[i];
    for (uint64_t k = ((uint64_t)1 << d) - 1;; k--) {
        const v2d v = amp[k];
        amp[k] = (v2d){0, 0};
        amp[e ^ off] = v;
        if (!k)
            break;
        e ^= sum[__builtin_ctzll(k)];
    }
}

/* The gate codes of a lowered circuit, in the order of circuit.TAGS. */
enum { G_H, G_S, G_SDG, G_X, G_Y, G_Z, G_CX, G_CZ, G_SWAP, G_RX, G_RY, G_RZ,
       G_MEASZ, G_PREPZ };

/* A signed Pauli operator i**p * X**x Z**z, with Y stored letter-exactly
 * as in pauli.py, and the frame rows it is read from: rows 0..n-1 hold
 * eff_z, rows n..2n-1 eff_x. */
typedef struct {
    uint64_t x, z;
    unsigned p;
} pauli;

typedef struct {
    uint64_t *x, *z;
    uint8_t *p;
} frame;

static inline pauli row(frame f, int i)
{
    return (pauli){f.x[i], f.z[i], f.p[i]};
}

static inline void set_row(frame f, int i, pauli a)
{
    f.x[i] = a.x;
    f.z[i] = a.z;
    f.p[i] = (uint8_t)(a.p & 3);
}

static inline unsigned popcount(uint64_t v)
{
    return (unsigned)__builtin_popcountll(v);
}

/* i**shift * a * b: pauli._mul, in unsigned arithmetic mod 4 */
static inline pauli mul(pauli a, pauli b, unsigned shift)
{
    const pauli r = {a.x ^ b.x, a.z ^ b.z, 0};
    return (pauli){r.x, r.z,
                   (a.p + b.p + shift + popcount(a.x & a.z) + popcount(b.x & b.z)
                    - popcount(r.x & r.z) + 2 * popcount(a.z & b.x)) & 3};
}

static inline void negate(frame f, int i)
{
    f.p[i] = (uint8_t)((f.p[i] + 2) & 3);
}

static inline void swap_rows(frame f, int i, int j)
{
    const pauli a = row(f, i);
    set_row(f, i, row(f, j));
    set_row(f, j, a);
}

static inline uint64_t swap_bits(uint64_t v, int a, int b)
{
    const uint64_t t = ((v >> a) ^ (v >> b)) & 1;
    return v ^ t << a ^ t << b;
}

/* The bits below d of a mask (d <= 64). */
static inline uint64_t below(int64_t d)
{
    return d >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << d) - 1;
}

/* The hybrid's register.  The tracked state is U P_A |phi>, U the frame's
 * Clifford and P_A the index map |k> -> |A k>, and phi is zero beyond its
 * first 2**d amplitudes.  A is an invertible GF(2) matrix held as its n
 * row masks, (A k)_i = parity(rows[i] & k), and as the columns inv[i] =
 * A^-1 e_i of its inverse. */
typedef struct {
    uint64_t *rows, inv[64];
    int n;
    int64_t d;
} reg;

/* Open the register of the n row masks rows and the active count d; 0 if
 * the rows are not those of an invertible n x n matrix, else 1. */
static int reg_open(reg *r, uint64_t *rows, int n, int64_t d)
{
    uint64_t cols[64] = {0};
    for (int i = 0; i < n; i++) {
        if (n < 64 && rows[i] >> n)
            return 0;
        for (uint64_t v = rows[i]; v; v &= v - 1)
            cols[__builtin_ctzll(v)] |= (uint64_t)1 << i;
    }
    r->rows = rows;
    r->n = n;
    r->d = d;
    return invert_cols(cols, n, r->inv);
}

/* Map the operator *a, a frame image, onto the register: P_A^dag a P_A =
 * X**(A^-1 x) Z**(A^T z) up to a's phase, which is kept in that X-then-Z
 * form and stored letter-exactly again.  If A^-1 x has bits at or above d
 * and `activate` is clear, return 0 and leave *a as it is.  If it is set,
 * take the lowest such bit j: CX(j -> t) clears each other one, t, and
 * SWAP(j, d) moves j to d.  These gates act on qubits that are |0> in
 * phi, so they leave phi as it is and fold into A (A <- A CX.. SWAP), and
 * d grows by one.  The z bits at or above d are then dropped, as Z acts
 * as +1 on a qubit that is |0>.  Returns 1 with *a mapped. */
static int reg_map(reg *r, pauli *a, int activate)
{
    const unsigned e = a->p + popcount(a->x & a->z); /* a = i**e X**x Z**z */
    uint64_t x = xor_cols(r->inv, a->x);
    const uint64_t hi = x & ~below(r->d);
    if (hi) {
        if (!activate)
            return 0;
        const uint64_t t = hi & (hi - 1);
        const int j = __builtin_ctzll(hi), d = (int)r->d;
        for (int i = 0; i < r->n; i++) {
            const uint64_t row = r->rows[i] ^ (uint64_t)__builtin_parityll(r->rows[i] & t) << j;
            r->rows[i] = swap_bits(row, j, d);
            r->inv[i] = swap_bits(r->inv[i] >> j & 1 ? r->inv[i] ^ t : r->inv[i], j, d);
        }
        x = swap_bits(x ^ t, j, d);
        r->d++;
    }
    const uint64_t z = xor_cols(r->rows, a->z) & below(r->d);
    *a = (pauli){x, z, (e - popcount(x & z)) & 3};
    return 1;
}

/* *op = {x, z, p}, a signed Pauli operator on n qubits, mapped onto the
 * register of the n row masks rows and the active count d as reg_map does,
 * activating a qubit if `activate` is set.  Returns the active count after
 * the call; -1, leaving *op as it was, if the mapped operator leaves the
 * register and activate is clear; -2 if the rows are not invertible. */
int64_t framesim_register_map(uint64_t *rows, int n, int64_t d, uint64_t *op, int activate)
{
    reg r;
    if (!reg_open(&r, rows, n, d))
        return -2;
    pauli a = {op[0], op[1], (unsigned)op[2]};
    if (!reg_map(&r, &a, activate))
        return -1;
    op[0] = a.x;
    op[1] = a.z;
    op[2] = a.p;
    return r.d;
}

static inline double seconds(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* Run gates start, start+1, ... of a lowered circuit on the hybrid
 * backend, up to the first MEASZ or PREPZ or to stop, and return the index
 * of the first gate not run, or -1 if the index map is not invertible.
 * Gate k is ops[3k] (its code), ops[3k+1] and ops[3k+2] (its qubits; the
 * second is 0 for one-qubit gates) and angles[k].
 *
 * A Clifford gate rewrites at most two rows of the frame (fx, fz, fp, 2n
 * rows of n <= 64 qubits) as in PauliFrame.apply_gate.  A rotation looks up
 * its axis as PauliFrame.lookup does, eff_x[q] for RX, eff_z[q] for RZ and
 * i*eff_x[q]*eff_z[q] for RY, maps it onto the register (the n row masks
 * a_rows and the active count *active, both updated in place), activating
 * a qubit if it must, and applies R_P(t) = cos(t/2)*I - i*sin(t/2)*P in one
 * pass of framesim_clifford over the register's 2**max(d, 1) amplitudes,
 * with the arguments of statevector._pauli_update.  The seconds spent in
 * those passes are added to *rotation_s.  The codes and qubits are
 * trusted: Circuit.append checks them. */
int64_t framesim_run_gates(double *amp, int n, uint64_t *fx, uint64_t *fz, uint8_t *fp,
                           uint64_t *a_rows, int64_t *active, const int32_t *ops,
                           const double *angles, int64_t start, int64_t stop,
                           double *rotation_s)
{
    const frame f = {fx, fz, fp};
    reg r;
    if (!reg_open(&r, a_rows, n, *active))
        return -1;
    double spent = 0.0;
    int64_t k = start;
    for (; k < stop; k++) {
        const int32_t *g = ops + 3 * k;
        const int a = g[1], b = g[2], za = a, xa = n + a, zb = b, xb = n + b;
        pauli axis;
        switch (g[0]) {
        case G_H:
            swap_rows(f, za, xa);
            continue;
        case G_S:
            set_row(f, xa, mul(row(f, za), row(f, xa), 1));
            continue;
        case G_SDG:
            set_row(f, xa, mul(row(f, za), row(f, xa), 3));
            continue;
        case G_X:
            negate(f, za);
            continue;
        case G_Y:
            negate(f, za);
            negate(f, xa);
            continue;
        case G_Z:
            negate(f, xa);
            continue;
        case G_CX:
            set_row(f, zb, mul(row(f, za), row(f, zb), 0));
            set_row(f, xa, mul(row(f, xa), row(f, xb), 0));
            continue;
        case G_CZ:
            set_row(f, xa, mul(row(f, xa), row(f, zb), 0));
            set_row(f, xb, mul(row(f, za), row(f, xb), 0));
            continue;
        case G_SWAP:
            swap_rows(f, za, zb);
            swap_rows(f, xa, xb);
            continue;
        case G_RX:
            axis = row(f, xa);
            break;
        case G_RY:
            axis = mul(row(f, xa), row(f, za), 1);
            break;
        case G_RZ:
            axis = row(f, za);
            break;
        default: /* MEASZ, PREPZ: the caller draws the outcome */
            goto out;
        }
        reg_map(&r, &axis, 1);
        const double t0 = seconds(), h = 0.5 * angles[k];
        framesim_clifford(amp, (int64_t)1 << (r.d > 1 ? r.d : 1), axis.x, axis.z,
                          cos(h), sin(h), (int)((3 + axis.p - popcount(axis.x & axis.z)) & 3));
        spent += seconds() - t0;
    }
out:
    *active = r.d;
    *rotation_s += spent;
    return k;
}
