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
 * inside the L1 cache.  The shear pass adds to the tile index a linear
 * function of the position in the tile, pair by pair, in place, one coset
 * of at most 2**TILE_BITS tiles at a time, and then to each position a
 * linear function of the tile index.  The flush splits A into one affine
 * pass followed by one shear pass.
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

/* inv <- the columns of the inverse of the GF(2) matrix with the nb
 * columns cols, each below 2**nb; returns 0 if that matrix is singular. */
static int invert_cols(const uint64_t *cols, int nb, uint64_t *inv)
{
    uint64_t pv[64], pt[64], have = 0; /* basis vector and its sum of columns, by top bit */
    for (int j = 0; j < nb; j++) {
        uint64_t v = cols[j], t = (uint64_t)1 << j;
        while (v && have >> top_bit(v) & 1) {
            const int p = top_bit(v);
            v ^= pv[p];
            t ^= pt[p];
        }
        if (!v || (nb < 64 && v >> nb))
            return 0;
        pv[top_bit(v)] = v;
        pt[top_bit(v)] = t;
        have |= (uint64_t)1 << top_bit(v);
    }
    for (int i = 0; i < nb; i++) {
        uint64_t v = (uint64_t)1 << i, t = 0;
        for (; v; v ^= pv[top_bit(v)])
            t ^= pt[top_bit(v)];
        inv[i] = t;
    }
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

/* dst[perm[l] ^ off(u)] <- c * i**e(u, l) * src[l] for the positions l of
 * tile u, with e(u, l) = lin(u) + ql[l] + 2*parity(xc(u) & l); cr[e] and
 * ci[e] hold c * i**e as the factors of a and of a with re and im swapped. */
static void map_tile(v2d *restrict dst, const v2d *restrict src, const v2d *next,
                     int64_t len, const uint8_t *perm, const uint8_t *ql,
                     const tile_parts *tp, uint64_t u, const v2d *cr, const v2d *ci)
{
    uint64_t o = 0, y = 0;
    unsigned c = 0;
    for (uint64_t r = u; r; r &= r - 1) {
        const int j = __builtin_ctzll(r);
        o ^= tp->off[j];
        y ^= tp->xc[j];
        c += tp->lin[j] + (unsigned)__builtin_popcountll(tp->quad[j] & u);
    }
    for (int64_t l = 0; l < len; l++) {
        if (l % LINE == 0)
            prefetch(next + l);
        const unsigned e = (c + ql[l] + PARITY2[y & (uint64_t)l]) & 3;
        const v2d a = src[l];
        dst[perm[l] ^ o] = cr[e] * a + ci[e] * (v2d){a[1], a[0]};
    }
}

enum { AFFINE_OK, AFFINE_SINGULAR, AFFINE_ASYMMETRIC };

/* amp[G k ^ offset] <- (cre + i*cim) * i**q(k) * amp[k] for every index k
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
 * tile it reads next.  Returns AFFINE_SINGULAR or AFFINE_ASYMMETRIC, leaving amp
 * as it was, if G or cross is not as required, else AFFINE_OK. */
int framesim_affine(double *amp_, int64_t n_amp, const uint64_t *cols, uint64_t offset,
                    const uint8_t *diag, const uint64_t *cross, double cre, double cim,
                    uint8_t *seen)
{
    v2d *amp = (v2d *)amp_;
    const int n = top_bit((uint64_t)n_amp), b = tile_bits(n_amp), nb = n - b;
    const int64_t len = (int64_t)1 << b;
    const uint64_t lo = (uint64_t)len - 1, n_tiles = (uint64_t)n_amp >> b;

    for (int i = 0; i < n; i++) {
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

    v2d cr[4], ci[4];
    for (int e = 0; e < 4; e++) {
        const v2d c = turn((v2d){cre, cim}, e);
        cr[e] = (v2d){c[0], c[0]};
        ci[e] = (v2d){-c[1], c[1]};
    }
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
                     amp + (v < n_tiles ? v : s) * (uint64_t)len, len, perm, ql, &tp, u,
                     cr, ci);
            if (u == s)
                break;
            cur = u;
        }
    }
    return AFFINE_OK;
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
 * The upper shear is its own inverse and maps each coset t ^ V of the span
 * V of B (at most 2**b tiles: 1 MiB, inside the L2 cache) to itself, so
 * the loop walks the state coset by coset.  Inside one, it swaps the
 * positions l of tile t with those of tile t ^ B l, for each pair once,
 * the positions being grouped by their value of B l.  It then permutes
 * the positions of each tile of the coset by its offset M t, pair by pair,
 * while the coset is still in the cache. */
int framesim_shear(double *amp_, int64_t n_amp, const uint64_t *up, const uint64_t *down)
{
    v2d *amp = (v2d *)amp_;
    const int b = tile_bits(n_amp), nb = top_bit((uint64_t)n_amp) - b;
    const int64_t len = (int64_t)1 << b;
    const uint64_t lo = (uint64_t)len - 1, n_tiles = (uint64_t)n_amp >> b;
    for (int j = 0; j < nb; j++)
        if (down[j] & ~lo)
            return 1;

    /* a reduced echelon basis of V, sorted by pivot (top) bit: every pivot
     * bit is set in its own basis vector only, so a vector of V is the sum
     * of the basis vectors whose pivot bits it has */
    uint64_t basis[TILE_BITS], pivots = 0;
    int r = 0;
    for (int i = 0; i < b; i++) {
        if (up[i] & lo)
            return 1;
        uint64_t v = up[i] >> b;
        for (int k = 0; k < r; k++)
            if (v >> top_bit(basis[k]) & 1)
                v ^= basis[k];
        if (!v)
            continue;
        for (int k = 0; k < r; k++)
            if (basis[k] >> top_bit(v) & 1)
                basis[k] ^= v;
        int k = r++;
        for (; k > 0 && basis[k - 1] > v; k--)
            basis[k] = basis[k - 1];
        basis[k] = v;
        pivots |= (uint64_t)1 << top_bit(v);
    }
    uint64_t tag[TILE_BITS]; /* column i as the sum of the basis vectors in tag[i] */
    for (int i = 0; i < b; i++) {
        tag[i] = 0;
        for (int k = 0; k < r; k++)
            tag[i] |= (uint64_t)(up[i] >> b >> top_bit(basis[k]) & 1) << k;
    }
    /* span[g] is the sum of the basis vectors in g; the positions pos[k]
     * for start[g] <= k < start[g + 1] are those with B l = span[g] */
    const int size = 1 << r;
    uint64_t span[TILE];
    uint8_t group[TILE], pos[TILE];
    int start[TILE + 1] = {0}, fill[TILE];
    span[0] = 0;
    for (int k = 0; k < r; k++)
        for (int g = 0; g < 1 << k; g++)
            span[(1 << k) + g] = span[g] ^ basis[k];
    group[0] = 0;
    for (int i = 0; i < b; i++)
        for (int64_t l = 0; l < (int64_t)1 << i; l++)
            group[((int64_t)1 << i) + l] = (uint8_t)(group[l] ^ tag[i]);
    for (int64_t l = 0; l < len; l++)
        start[group[l] + 1]++;
    for (int g = 0; g < size; g++) {
        start[g + 1] += start[g];
        fill[g] = start[g];
    }
    for (int64_t l = 0; l < len; l++)
        pos[fill[group[l]]++] = (uint8_t)l;

    /* one tile of each coset has every pivot bit clear.  The positions of
     * group g of tile rep ^ span[i] pair with those of tile rep ^ span[i ^
     * g].  As the basis is reduced and sorted, bit k of i is the pivot bit
     * of basis vector k in span[i], so the groups g whose top bit k is
     * clear in i list each pair of tiles once.  A tile's partners get
     * distinct positions, so they fall in distinct sets of the L1 cache. */
    for (uint64_t rep = 0; rep < n_tiles; rep = ((rep | pivots) + 1) & ~pivots) {
        for (int i = 0; i < size; i++) {
            v2d *restrict a = amp + (rep ^ span[i]) * (uint64_t)len;
            for (int k = 0; k < r; k++) {
                if (i >> k & 1)
                    continue;
                for (int g = 1 << k; g < 2 << k; g++) {
                    v2d *restrict c = amp + (rep ^ span[i ^ g]) * (uint64_t)len;
                    for (int j = start[g]; j < start[g + 1]; j++) {
                        const v2d x = a[pos[j]];
                        a[pos[j]] = c[pos[j]];
                        c[pos[j]] = x;
                    }
                }
            }
            /* the partners of tile i are all above it in this order, so
             * the tile is done, and still in the cache */
            const uint64_t o = xor_cols(down, rep ^ span[i]);
            if (!o)
                continue;
            const int64_t skip = (int64_t)1 << top_bit(o);
            for (int64_t l = 0; l < len; l = ((l | skip) + 1) & ~skip) {
                const v2d x = a[l];
                a[l] = a[l ^ (int64_t)o];
                a[l ^ (int64_t)o] = x;
            }
        }
    }
    return 0;
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
