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
 * The two gate kernels after it serve the baseline's gates: any complex
 * 2x2 matrix on one qubit (H, or a run of one-qubit gates fused into one),
 * which can take a CX or CZ on that qubit into the same pass, and a masked
 * pair exchange that swaps pairs of amplitudes (CX and SWAP) or multiplies
 * a masked subset by a power of i (Z, S, SDG and CZ).  Like
 * the Clifford loop, each walks a set of tiles (tile_set): the whole
 * state, or one coset of a blocked run (see below).  A pair either lies in
 * one tile, or a tile pairs with the tile its partner mask reaches; inside
 * a tile the loops take contiguous runs of amplitudes, a cache line at a
 * time where the runs are shorter, and allocate nothing.  Both loops that
 * mix a pair, the Clifford and the 2x2 loop, load a cache line of both
 * partners before they store any of it: partners in two tiles sit a
 * multiple of 4 KiB apart, and a load that follows a store to the same
 * address modulo 4 KiB waits for that store.
 *
 * The Clifford and 2x2 loops are each compiled twice from one
 * body: a generic clone for any CPU, and on x86-64 a clone for AVX2 with
 * FMA, which holds a 32-byte vector in one register.  The library picks one
 * when it loads, from what the CPU reports, so one build runs on any
 * x86-64 and the build flags name no CPU.  The pair exchange only moves
 * amplitudes and gains nothing from a wider clone, so its pass over a
 * whole state has one build; inside a blocked run each clone has its own
 * copy, as a call from AVX2 code into generic code ran three times slower.
 *
 * One call then applies the part of a flush without a Hadamard part, which
 * maps each index k to A k ^ b, A an invertible GF(2) matrix, with a
 * quadratic phase (see framesim_permute).  It factors A = L U G for the
 * tiles: G moves whole tiles, U adds to the tile index a linear function
 * of the position in the tile, and L adds to the position a linear
 * function of the tile index.  The affine pass applies G with the offset
 * and the phase: it relabels the tiles by following the cycles of the tile
 * map, with one tile of scratch, and permutes and phases each tile inside
 * the L1 cache; without a phase, as for the index map of a flush at the
 * origin frame, it only moves the amplitudes.  The shear pass applies U
 * and L in place, moving whole cache lines: the tiles fall into groups of
 * up to 4 that the two lowest position bits reach, and the block of one
 * line of each tile of a group swaps with that of another group, permuted
 * in registers; L then permutes the positions of each group's tiles while
 * the group is in the L1 cache.  When the state is zero beyond its first
 * 2**d amplitudes, only the first d columns of A and the phase on those
 * amplitudes matter, and one phased scatter from a copy of them writes
 * each to its place instead (see framesim_scatter).
 *
 * The gate loops at the end run a circuit's lowered gate stream.  The
 * baseline's makes the pass of each gate over the whole state, except that
 * it holds each qubit's one-qubit gates back and makes one pass at most of
 * each run of them, the 2x2 loop on their product where several are left
 * after cancelling inverse pairs, and that a CX or CZ that comes right
 * after such a pass on its target joins it.  The hybrid's updates a
 * bit-packed Pauli frame for each Clifford gate, and each rotation looks up
 * its axis in the frame and calls the Clifford loop on the hybrid's
 * register.  The hybrid tracks U P_A |phi>, U the frame's Clifford and
 * P_A |k> = |A k> an index map, A an invertible GF(2) matrix, and phi is
 * zero beyond its first 2**d amplitudes: the register
 * of d active qubits.  A frame image P acts on phi as P_A^dag P P_A, whose
 * Z letters at or above d act as +1 and are dropped.  If its X part has
 * bits at or above d, one qubit is activated first: CX gates from the
 * lowest such bit j clear the others and SWAP(j, d) moves j to bit d.
 * These gates act on qubits that are |0> in phi, so they change only A,
 * and d grows by one.  Each rotation then makes one pass over 2**max(d, 1)
 * amplitudes instead of 2**n (see reg_map).  Once the amplitudes of a
 * pass outgrow the L2 cache, both loops apply each run of passes on one
 * register size in one walk that takes each group of tiles through the
 * whole run while the group sits in that cache (see push).
 *
 * The flush at the end folds the frame and the index map back into the
 * register in one call.  It checks the frame, then splits its Clifford U
 * into h quarter turns followed by one Clifford F without a Hadamard part,
 * word for word as frame.split_clifford does: each turn conjugates the 2n
 * rows, a parity and a product of words per row (Aaronson & Gottesman,
 * PRA 70, 052328).  It applies each turn to the register as the gate loop
 * applies a rotation, and composes F with P_A; the caller applies F P_A in
 * the scatter or the permutation above.
 *
 * Built by _kernels.py with the system C compiler and loaded with ctypes.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

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

/* v as it is, in a register: the compiler cannot fuse the product that
 * computed it into an add */
#if defined(__x86_64__)
#define ROUNDED(v) __asm__("" : "+x"(v))
#else
#define ROUNDED(v) ((void)0)
#endif

/* *d <- ca*a + *p * order(part(b)) for vectors a and b, with *p the pattern
 * of position d; part(b) is b with its two amplitudes exchanged if flip is
 * set.  A clone with 32-byte registers (wide) computes it in one piece; the
 * generic clone computes each 16-byte half on its own, as GCC would
 * otherwise assemble every 32-byte value in a stack slot.  In the AVX2
 * clone the product *p * order(part(b)) is rounded on its own and ca*a is
 * fused into the add (ROUNDED): the rounding the compiler chose when it
 * was free to, named so that an edit elsewhere cannot change it. */
#define UPDATE(d, a, b, p, ca, flip, how, wide)                               \
    do {                                                                      \
        if (wide) {                                                           \
            const v4d b_ = (flip) ? (v4d){(b)[2], (b)[3], (b)[0], (b)[1]}     \
                                  : (b),                                      \
                      s_ = {b_[1], b_[0], b_[3], b_[2]};                      \
            v4d p_ = *(p) * ORDER(b_, s_, how);                               \
            ROUNDED(p_);                                                      \
            *(d) = (ca) * (a) + p_;                                           \
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

/* The tiles a walk visits, by index j < count: tile j, or, with a span
 * table, tile rep ^ span[j], the tiles of one coset of the span of a run's
 * tile masks (see run_walk).  A walk over the whole state passes no table,
 * and the compiler drops the lookup. */
typedef struct {
    const uint64_t *span;
    uint64_t rep;
    int64_t count;
} tile_set;

static inline __attribute__((always_inline)) uint64_t tile_at(tile_set s, int64_t j)
{
    return s.span ? s.rep ^ s.span[j] : (uint64_t)j;
}

/* The tiles of a whole state of n_amp amplitudes, in tiles of 2**b */
static inline tile_set whole(int64_t n_amp, int b)
{
    return (tile_set){NULL, 0, n_amp >> b};
}

/* The traversal of framesim_clifford over the tiles of ts for one element
 * order `how` and flip = x & 1, which the caller passes as constants so
 * that each combination gets a loop of its own, as each clone passes its
 * `wide`.  Amplitude k sits in vector k >> 1, and its partner k ^ x in
 * vector (k >> 1) ^ (x >> 1), at the other position of it if x is odd.
 * Tile t pairs with tile t ^ (x >> b): tile_at(j) with tile_at(j ^ xj), xj
 * being the index of x >> b in ts.  pat[o][v] is the pattern of vector v
 * of a tile whose sign O(t) (see framesim_clifford) is (-1)**o. */
static inline __attribute__((always_inline)) void
turn_walk(v4d *amp, tile_set ts, int b, uint64_t x, uint64_t xj, uint64_t z,
          v4d (*pat)[TILE / 2], double ca, int flip, int how, int wide)
{
    const int64_t len = (int64_t)1 << (b - 1); /* vectors per tile */
    const int64_t count = ts.count;
    const uint64_t xv = (x & (((uint64_t)1 << b) - 1)) >> 1;
    const uint64_t xt = x >> b, zt = z >> b;
#define O(t) __builtin_parityll((uint64_t)(t) & zt)

    if (x < 2) {
        /* x = 0 pairs each amplitude with itself, x = 1 with the other
         * one of its vector */
        for (int64_t j = 0; j < count; j++) {
            const uint64_t t = tile_at(ts, j);
            v4d *restrict r = amp + t * len;
            const v4d *pt = pat[O(t)];
            for (int64_t i = 0; i < len; i++) {
                const v4d a = r[i];
                UPDATE(r + i, a, a, pt + i, ca, flip, how, wide);
            }
        }
        return;
    }

    if (xt == 0) {
        /* partners share a tile.  With q the highest bit of xv, the blocks
         * of 2**q vectors with bit q clear pair with the blocks right
         * above them through i -> i ^ mx. */
        const int q = 63 - __builtin_clzll(xv);
        const int64_t half = (int64_t)1 << q, mx = (int64_t)(xv ^ (uint64_t)half);
        for (int64_t j = 0; j < count; j++) {
            const uint64_t t = tile_at(ts, j);
            v4d *tile = amp + t * len;
            const v4d *next = j + 1 < count ? amp + tile_at(ts, j + 1) * len : tile;
            const v4d *pt = pat[O(t)];
            if (half >= LINE2) {
                for (int64_t blk = 0; blk < len; blk += 2 * half)
                    turn_blocks(tile + blk, tile + blk + half, pt + blk,
                                pt + blk + half, next + blk, next + blk + half,
                                half, mx, ca, flip, how, wide);
                continue;
            }
            /* x is 2 or 3: vector 2i pairs with vector 2i + 1 */
            for (int64_t i = 0; i < len; i += 2) {
                prefetch(next + i);
                turn_pair(tile + i, tile + i + 1, pt + i, pt + i + 1, ca, flip, how,
                          wide);
            }
        }
        return;
    }

    /* partner tiles differ: pair each index j with bit jp clear with j ^ xj */
    const int64_t jp = (int64_t)(xj & -xj);
    for (int64_t j = 0; j < count; j++) {
        if (j & jp)
            continue;
        int64_t next = (j + 1) & jp ? j + 1 + jp : j + 1;
        if (next >= count)
            next = j;
        const uint64_t t = tile_at(ts, j), t2 = t ^ xt, tn = tile_at(ts, next);
        turn_blocks(amp + t * len, amp + t2 * len, pat[O(t)], pat[O(t2)],
                    amp + tn * len, amp + (tn ^ xt) * len, len,
                    (int64_t)xv, ca, flip, how, wide);
    }
#undef O
}

/* turn_walk for the element order of e0 and the flip of x */
static inline __attribute__((always_inline)) void
walk(v4d *amp, tile_set ts, int b, uint64_t x, uint64_t xj, uint64_t z,
     v4d (*pat)[TILE / 2], double ca, int e0, int wide)
{
    const int how = e0 & 1 ? SWAP : KEEP;
    if (x & 1) {
        if (how == SWAP)
            turn_walk(amp, ts, b, x, xj, z, pat, ca, 1, SWAP, wide);
        else
            turn_walk(amp, ts, b, x, xj, z, pat, ca, 1, KEEP, wide);
    } else if (how == SWAP)
        turn_walk(amp, ts, b, x, xj, z, pat, ca, 0, SWAP, wide);
    else
        turn_walk(amp, ts, b, x, xj, z, pat, ca, 0, KEEP, wide);
}

/* The order is the same everywhere, and pat[0] holds cb * TURN[e0] *
 * (-1)**parity(k & z) for the amplitudes k of a tile of lv vectors, built
 * by doubling; pat[1] = -pat[0] serves the tiles of odd sign. */
static inline __attribute__((always_inline)) void
patterns(v4d (*pat)[TILE / 2], int64_t lv, uint64_t z, double cb, int e0)
{
    const v2d c = TURN[e0 & 3] * cb, c1 = z & 1 ? -c : c;
    pat[0][0] = (v4d){c[0], c[1], c1[0], c1[1]};
    for (int64_t h = 1; h < lv; h <<= 1) {
        const double s = (z & (uint64_t)(2 * h)) ? -1.0 : 1.0;
        for (int64_t j = 0; j < h; j++)
            pat[0][h + j] = pat[0][j] * s;
    }
    for (int64_t j = 0; j < lv; j++)
        pat[1][j] = -pat[0][j];
}

/* The body of framesim_clifford, compiled once per clone; wide is set in
 * the clone with 32-byte registers */
static inline __attribute__((always_inline)) void
clifford(double *amp, int64_t n_amp, uint64_t x, uint64_t z, double ca,
         double cb, int e0, int wide)
{
    const int b = tile_bits(n_amp);
    v4d pat[2][TILE / 2];
    patterns(pat, (int64_t)1 << (b - 1), z, cb, e0);
    walk((v4d *)amp, whole(n_amp, b), b, x, x >> b, z, pat, ca, e0, wide);
}

/* *d <- k[0] * u + k[1] * swap(u) + k[2] * part(w) + k[3] * swap(part(w))
 * for vectors u and w of two amplitudes, swap exchanging the re and im of
 * each amplitude and part(w) being w with its two amplitudes exchanged if
 * flip is set.  With k[0], k[1] the vectors (re c, re c) and (-im c, im c)
 * of a complex c for each amplitude, the first two terms are c times u, and
 * the last two are a second complex product.  As in UPDATE, the generic
 * clone computes each 16-byte half on its own.  In the AVX2 clone the
 * compiler fuses products into the adds, and ROUNDED leaves it one way to
 * do so: one product rounded on its own, k[0] * u (own = 0) or k[1] *
 * swap(u) (own = 1), and the other three added to it in turn in FMAs.  The
 * caller names that product, as the compiler's own choice changed with
 * the code around the loop, and the rounding with it. */
#define MIX(d, u, w, k, flip, own, wide)                                      \
    do {                                                                      \
        if (wide) {                                                           \
            const v4d w_ = (flip) ? (v4d){(w)[2], (w)[3], (w)[0], (w)[1]}     \
                                  : (w),                                      \
                      su_ = {(u)[1], (u)[0], (u)[3], (u)[2]},                 \
                      sw_ = {w_[1], w_[0], w_[3], w_[2]};                     \
            v4d p_ = (own) ? (k)[1] * su_ : (k)[0] * (u);                     \
            ROUNDED(p_);                                                      \
            *(d) = ((own) ? (k)[0] * (u) : (k)[1] * su_) + p_ + (k)[2] * w_   \
                   + (k)[3] * sw_;                                            \
        } else {                                                              \
            v2d *d_ = (v2d *)(d);                                             \
            const v2d *k_ = (const v2d *)(k);                                 \
            for (int h_ = 0; h_ < 2; h_++) {                                  \
                const int g_ = 2 * (h_ ^ (flip));                             \
                const v2d u_ = {(u)[2 * h_], (u)[2 * h_ + 1]},                \
                          w_ = {(w)[g_], (w)[g_ + 1]};                        \
                d_[h_] = k_[h_] * u_ + k_[2 + h_] * (v2d){u_[1], u_[0]}       \
                         + k_[4 + h_] * w_ + k_[6 + h_] * (v2d){w_[1], w_[0]};\
            }                                                                 \
        }                                                                     \
    } while (0)

/* Where the 2x2 loop finds the control of a CX or CZ set (see u2_walk):
 * nowhere (PLAIN), per vector (VECTORS: a control on bit 1 or up, the bit
 * c >> 1 of the vector's index) or in lane 1 of every vector (LANES: a
 * control on bit 0). */
enum { PLAIN, VECTORS, LANES };

/* What a CX (e = 0) or CZ (e = 2) does to a pair of amplitudes *a, *b
 * where its control is set: the CX exchanges them, the CZ negates *b */
static inline __attribute__((always_inline)) void pair_gate(v2d *a, v2d *b, int e)
{
    const v2d t = *a;
    *a = e ? t : *b;
    *b = e ? -*b : t;
}

/* lo[i], hi[i] <- y0 and y1, the outputs of MIX for the pair of vectors i
 * of a block on the AVX2 clone: as they are where the control is clear,
 * and as pair_gate leaves them where it is set (set, for VECTORS) or in
 * lane 1 (LANES).  The generic clone stores y0 and y1 and applies
 * pair_gate half by half, as it would otherwise hold each 32-byte value in
 * a stack slot (see MIX). */
#define STORE2(lo, hi, i, y0, y1, set, e, how)                                \
    do {                                                                      \
        const v4d nl_ = {(y1)[0], (y1)[1], -(y1)[2], -(y1)[3]};              \
        if ((how) == LANES && !(e)) {                                         \
            (lo)[i] = (v4d){(y0)[0], (y0)[1], (y1)[2], (y1)[3]};              \
            (hi)[i] = (v4d){(y1)[0], (y1)[1], (y0)[2], (y0)[3]};              \
        } else if ((set) && !(e)) {                                           \
            (lo)[i] = (y1);                                                   \
            (hi)[i] = (y0);                                                   \
        } else {                                                              \
            (lo)[i] = (y0);                                                   \
            (hi)[i] = (how) == LANES ? nl_ : (set) ? -(y1) : (y1);            \
        }                                                                     \
    } while (0)

/* MIX on (lo[i], hi[i]) for i < len: lo <- klo (lo, hi), hi <- khi (hi, lo),
 * with a control found as `how` says, on the bit cv of the index of vector
 * v + i (VECTORS), and the gate e: where the control is set, a CX (e = 0)
 * stores each output where the other one goes, and a CZ (e = 2) negates
 * hi.  As in turn_blocks, the vectors of 64 bytes of both blocks are all
 * loaded before any is stored (see the head of this file); a block shorter
 * than that takes one vector at a time.  In MIX the short loop rounds
 * k[0] * u, the line loop k[1] * swap(u): the roundings these loops had
 * when the compiler chose them, so that a pass gives the amplitudes it
 * always gave. */
static inline __attribute__((always_inline)) void
mix_blocks(v4d *restrict lo, v4d *restrict hi, int64_t len, const v4d *klo, const v4d *khi,
           uint64_t v, uint64_t cv, int e, int how, int wide)
{
#define MIX2(i, a, c, own)                                                    \
    do {                                                                      \
        const int set_ = how == VECTORS && ((v + (i)) & cv);                  \
        if (wide && how != PLAIN) {                                           \
            v4d y0_, y1_;                                                     \
            MIX(&y0_, a, c, klo, 0, own, wide);                               \
            MIX(&y1_, c, a, khi, 0, own, wide);                               \
            STORE2(lo, hi, i, y0_, y1_, set_, e, how);                        \
        } else {                                                              \
            MIX(lo + (i), a, c, klo, 0, own, wide);                           \
            MIX(hi + (i), c, a, khi, 0, own, wide);                           \
            for (int g_ = how == LANES; g_ < 2 && (set_ || how == LANES); g_++) \
                pair_gate((v2d *)&lo[i] + g_, (v2d *)&hi[i] + g_, e);         \
        }                                                                     \
    } while (0)
    if (len < LINE2) {
        for (int64_t i = 0; i < len; i++) {
            const v4d a = lo[i], c = hi[i];
            MIX2(i, a, c, 0);
        }
        return;
    }
    for (int64_t j = 0; j < len; j += LINE2) {
        v4d a[LINE2], c[LINE2];
        for (int64_t i = 0; i < LINE2; i++) {
            a[i] = lo[j + i];
            c[i] = hi[j + i];
        }
        for (int64_t i = 0; i < LINE2; i++)
            MIX2(j + i, a[i], c[i], 1);
    }
#undef MIX2
}

/* k <- the vectors of MIX for the 2x2 loop of the complex matrix m on
 * qubit q, m given as 8 doubles, row by row, (re, im) per entry: for q = 0,
 * where a pair of amplitudes fills one vector, the 4 that multiply the
 * vector by (m00, m11) and its exchanged halves by (m01, m10); else the 4
 * of the lower amplitude of a pair, m00 and m01, then the 4 of the upper
 * one, m11 and m10. */
static inline __attribute__((always_inline)) void
u2_coefs(v4d *k, int q, const double *m)
{
    static const int at[2][8] = {{0, 6, 2, 4}, {0, 0, 2, 2, 6, 6, 4, 4}};
    for (int i = 0; i < (q ? 4 : 2); i++) {
        const double *c0 = m + at[q > 0][2 * i], *c1 = m + at[q > 0][2 * i + 1];
        k[2 * i] = (v4d){c0[0], c0[0], c1[0], c1[0]};
        k[2 * i + 1] = (v4d){-c0[1], c0[1], -c1[1], c1[1]};
    }
}

/* u2_walk with the control found as `how` says (see mix_blocks) */
static inline __attribute__((always_inline)) void
u2_tiles(v4d *amp, tile_set ts, int b, int q, uint64_t xj, const v4d *k, uint64_t cv, int e,
         int how, int wide)
{
    const int64_t len = (int64_t)1 << (b - 1); /* vectors per tile */
    const int64_t count = ts.count;
    if (q == 0) {
        for (int64_t j = 0; j < count; j++) {
            const uint64_t t = tile_at(ts, j);
            v4d *r = amp + t * len;
            for (int64_t i = 0; i < len; i++) {
                const v4d a = r[i];
                MIX(r + i, a, a, k, 1, 1, wide);
                /* the pair fills the vector: its two halves */
                if (how == VECTORS && ((t * len + i) & cv))
                    pair_gate((v2d *)(r + i), (v2d *)(r + i) + 1, e);
            }
        }
        return;
    }
    if (q < b) {
        const int64_t half = (int64_t)1 << (q - 1); /* vectors per run */
        for (int64_t j = 0; j < count; j++) {
            const uint64_t t = tile_at(ts, j);
            v4d *tile = amp + t * len;
            for (int64_t blk = 0; blk < len; blk += 2 * half)
                mix_blocks(tile + blk, tile + blk + half, half, k, k + 4, t * len + blk, cv,
                           e, how, wide);
        }
        return;
    }
    const uint64_t xt = (uint64_t)1 << (q - b);
    const int64_t jp = (int64_t)(xj & -xj);
    for (int64_t j = 0; j < count; j++) {
        if (j & jp)
            continue;
        const uint64_t t = tile_at(ts, j) & ~xt;
        mix_blocks(amp + t * len, amp + (t | xt) * len, len, k, k + 4, t * len, cv, e, how,
                   wide);
    }
}

/* The loops of u2_tiles with a control (see u2_walk), compiled once per
 * clone */
static inline __attribute__((always_inline)) void
ctl_walk(v4d *amp, tile_set ts, int b, int q, uint64_t xj, const v4d *k, uint64_t c, int e,
         int wide)
{
    if (c == 1)
        u2_tiles(amp, ts, b, q, xj, k, 0, e, LANES, wide);
    else
        u2_tiles(amp, ts, b, q, xj, k, c >> 1, e, VECTORS, wide);
}

static __attribute__((noinline)) void ctl_walk_generic(v4d *amp, tile_set ts, int b, int q,
                                                       uint64_t xj, const v4d *k, uint64_t c,
                                                       int e)
{
    ctl_walk(amp, ts, b, q, xj, k, c, e, 0);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"), noinline)) static void
ctl_walk_avx2(v4d *amp, tile_set ts, int b, int q, uint64_t xj, const v4d *k, uint64_t c,
              int e)
{
    ctl_walk(amp, ts, b, q, xj, k, c, e, 1);
}
#endif

/* The 2x2 loop on qubit q over the tiles of ts, tiles of 2**b amplitudes:
 * amp[k0], amp[k1] <- m00 a0 + m01 a1, m10 a0 + m11 a1 for each pair k0,
 * k1 = k0 | 2**q with bit q of k0 clear, k holding the vectors u2_coefs
 * makes of m.  It walks the tiles on the Clifford loop's vectors of two
 * amplitudes: for q = 0 a pair fills one vector, below b the pairs lie in
 * a tile, in two runs of 2**(q-1) vectors per block of 2**q, and from b up
 * tile t pairs with tile t ^ xt, xt = 2**(q-b): tile_at(j) with
 * tile_at(j ^ xj), xj being the index of xt in ts.  Which of the two has
 * the bit clear depends on the span, not on j, so the loop tests it.
 *
 * With a control mask c, a bit other than 2**q (0 for none), a CX (e = 0)
 * or CZ (e = 2) on control c and target q follows the 2x2 matrix in the
 * same pass: the matrix is m where the control is clear, and X m or Z m
 * where it is set.  Each output is the MIX product of m, stored where the
 * CX moves it or negated as the CZ does, so the amplitudes are those of
 * the 2x2 pass followed by the gate's pass, bit for bit.  The loop tests
 * the control per vector, which holds one value of it per tile for a
 * control above the tile and per block or run of vectors below it, or
 * else per lane for a control on bit 0.  The loops with a control are
 * compiled apart, in one function per clone (ctl_walk): inlined with the
 * others into one function, they made the compiler build the loop of
 * qubit 1 without a control 25% slower (GCC 12). */
static inline __attribute__((always_inline)) void
u2_walk(v4d *amp, tile_set ts, int b, int q, uint64_t xj, const v4d *k, uint64_t c, int e,
        int wide)
{
    if (!c)
        u2_tiles(amp, ts, b, q, xj, k, 0, 0, PLAIN, wide);
#if defined(__x86_64__)
    else if (wide)
        ctl_walk_avx2(amp, ts, b, q, xj, k, c, e);
#endif
    else
        ctl_walk_generic(amp, ts, b, q, xj, k, c, e);
}

/* The body of framesim_apply_u2, compiled once per clone */
static inline __attribute__((always_inline)) void
apply_u2(double *amp, int64_t n_amp, int q, const double *m, int wide)
{
    const int b = tile_bits(n_amp);
    v4d k[8];
    u2_coefs(k, q, m);
    u2_walk((v4d *)amp, whole(n_amp, b), b, q, ((uint64_t)1 << q) >> b, k, 0, 0, wide);
}

/* The two clones of the Clifford and 2x2 loops (see the head of this
 * file) */
static void clifford_generic(double *amp, int64_t n_amp, uint64_t x, uint64_t z,
                             double ca, double cb, int e0)
{
    clifford(amp, n_amp, x, z, ca, cb, e0, 0);
}

static void apply_u2_generic(double *amp, int64_t n_amp, int q, const double *m)
{
    apply_u2(amp, n_amp, q, m, 0);
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
apply_u2_avx2(double *amp, int64_t n_amp, int q, const double *m)
{
    apply_u2(amp, n_amp, q, m, 1);
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

/* amp[k0], amp[k1] <- m00 a0 + m01 a1, m10 a0 + m11 a1
 *
 * for every pair k0, k1 = k0 | 2**q with bit q of k0 clear: the one-qubit
 * gate of the complex 2x2 matrix m on qubit q, m given as 8 doubles, row
 * by row, (re, im) per entry, in one u2_walk over the tiles of the whole
 * state. */
void framesim_apply_u2(double *amp, int64_t n_amp, int q, const double *m)
{
#if defined(__x86_64__)
    if (use_avx2) {
        apply_u2_avx2(amp, n_amp, q, m);
        return;
    }
#endif
    apply_u2_generic(amp, n_amp, q, m);
}

/* framesim_apply_u2 with the control mask c and the gate e of u2_walk */
static void u2_pass(double *amp, int64_t n_amp, int q, const double *m, uint64_t c, int e)
{
    if (!c) {
        framesim_apply_u2(amp, n_amp, q, m);
        return;
    }
    const int b = tile_bits(n_amp);
    const tile_set ts = whole(n_amp, b);
    const uint64_t xj = ((uint64_t)1 << q) >> b;
    v4d k[8];
    u2_coefs(k, q, m);
#if defined(__x86_64__)
    if (use_avx2) {
        ctl_walk_avx2((v4d *)amp, ts, b, q, xj, k, c, e);
        return;
    }
#endif
    ctl_walk_generic((v4d *)amp, ts, b, q, xj, k, c, e);
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

/* The masked pair exchange on one pair of tiles of len amplitudes, a and
 * b, the same tile when x has no tile bits: for each position l of a with
 * (l & ml) == vl, a[l] <-> b[l ^ xl], or a[l] <- i**e * a[l] when x is 0.
 * ml, vl and xl are the parts of mask, val and x below the tile.
 *
 * The matching positions form runs of `run` contiguous amplitudes, run
 * being the lowest set bit of ml (the whole tile when ml is 0), and xl
 * moves a run as a whole.  The run starts with the bits of `fixed` clear
 * are counted in order by adding one with those bits forced set.  Runs of
 * one or two amplitudes (bit 0 or 1 of ml set) are walked a cache line at
 * a time instead, taking the one or two matching positions of each line. */
static inline void exchange_tiles(v2d *a, v2d *b, int64_t len, uint64_t ml, uint64_t vl,
                                  uint64_t xl, uint64_t x, int e)
{
    const uint64_t run = ml ? ml & -ml : (uint64_t)len;
    if (run < LINE && len >= LINE) {
        /* the second matching position of a line is the first plus the
         * low bit that ml leaves free, if it leaves one */
        const uint64_t lo = LINE - 1, fixed = ml | lo, f = lo & ~ml;
        for (uint64_t s = 0; s < (uint64_t)len; s = ((s | fixed) + 1) & ~fixed) {
            v2d *p = a + (s | vl);
            v2d *q = b + ((s | vl) ^ xl);
            exchange(p, q, x, e);
            if (f)
                exchange(p + f, q + f, x, e);
        }
        return;
    }
    const uint64_t fixed = ml | (run - 1);
    for (uint64_t s = 0; s < (uint64_t)len; s = ((s | fixed) + 1) & ~fixed) {
        v2d *restrict p = a + (s | vl);
        if (x == 0) {
            for (uint64_t j = 0; j < run; j++)
                p[j] = turn(p[j], e);
            continue;
        }
        v2d *restrict q = b + ((s | vl) ^ xl);
        for (uint64_t j = 0; j < run; j++) {
            const v2d t = p[j];
            p[j] = q[j];
            q[j] = t;
        }
    }
}

/* The masked pair exchange of framesim_pair_exchange over the tiles of ts,
 * tiles of 2**b amplitudes.  Tile t holds matching indices when its bits
 * under mask >> b equal val >> b, and pairs with tile t ^ (x >> b):
 * tile_at(j) with tile_at(j ^ xj), xj being the index of x >> b in ts.
 * Since x is a submask of mask, at most one tile of a pair matches, and
 * which one depends on the span, not on j, so the loop tests both. */
static inline __attribute__((always_inline)) void
exchange_walk(v2d *amp, tile_set ts, int b, uint64_t mask, uint64_t val, uint64_t x,
              uint64_t xj, int e)
{
    const int64_t len = (int64_t)1 << b;
    const uint64_t lo = (uint64_t)len - 1, mt = mask >> b, vt = val >> b, xt = x >> b;
    const int64_t jp = (int64_t)(xj & -xj); /* 0 when x has no tile bits */
    for (int64_t j = 0; j < ts.count; j++) {
        if (j & jp)
            continue;
        uint64_t t = tile_at(ts, j);
        if ((t & mt) != vt) {
            t ^= xt;
            if ((t & mt) != vt)
                continue;
        }
        exchange_tiles(amp + t * len, amp + (t ^ xt) * len, len, mask & lo, val & lo,
                       x & lo, x, e);
    }
}

/* For every k with (k & mask) == val, swap amp[k] with amp[k ^ x]; when x
 * is 0, multiply amp[k] by i**e instead (e in 0..3).  val and x must be
 * submasks of mask, so that a partner k ^ x (x nonzero) never matches val
 * itself and each pair is visited once, and mask must be below n_amp, a
 * power of two.  One exchange_walk over the tiles of the whole state. */
void framesim_pair_exchange(double *amp, int64_t n_amp, uint64_t mask, uint64_t val,
                            uint64_t x, int e)
{
    const int b = tile_bits(n_amp);
    exchange_walk((v2d *)amp, whole(n_amp, b), b, mask, val, x, x >> b, e);
}

/* The permutation of the flush's Hadamard-free remainder.  An index k
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

/* t <- the transpose of the n x n GF(2) matrix m: the columns of the
 * matrix whose row masks m holds, or the other way round. */
static void transpose(const uint64_t *m, int n, uint64_t *t)
{
    memset(t, 0, (size_t)n * sizeof *t);
    for (int i = 0; i < n; i++)
        for (uint64_t v = m[i]; v; v &= v - 1)
            t[__builtin_ctzll(v)] |= (uint64_t)1 << i;
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

/* The per-tile-bit parts of an affine pass (see affine_pass): for tile
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

enum { MAP_OK, MAP_SINGULAR, MAP_ASYMMETRIC };

/* 1 unless the n masks cross are symmetric with a clear diagonal, as the
 * quadratic phase of the permutation and the scatter needs them */
static int asymmetric(const uint64_t *cross, int n)
{
    for (int i = 0; i < n; i++) {
        if (cross[i] >> i & 1)
            return 1;
        for (int j = 0; j < i; j++)
            if (((cross[i] >> j) ^ (cross[j] >> i)) & 1)
                return 1;
    }
    return 0;
}

/* The affine pass of framesim_permute: amp[G k ^ offset] <- i**q(k) *
 * amp[k] for every index k, q as there.  G is the GF(2) matrix whose
 * column i, the image of bit i, is cols[i]; its columns below b map
 * positions to positions, invertibly, so that it moves whole tiles: tile t
 * goes to tile G_tt t ^ (offset >> b), with its positions permuted by the
 * low part of G and shifted by an offset that depends on t.  seen is a
 * zeroed scratch of one bit per tile.
 *
 * The tiles are relabeled by following the cycles of the tile map
 * backwards: the first tile of a cycle is copied aside, then each tile of
 * the cycle receives its preimage, permuted and phased, and the tile whose
 * preimage is the first one receives the copy.  Each tile is read and
 * written once, permuted inside the L1 cache, and the loop prefetches the
 * tile it reads next.  When every diag and cross entry is 0, q is 0 and the
 * tiles are only moved, with no lookup of a power of i and no multiply, as
 * the index map of a flush at the origin frame is.  Returns MAP_SINGULAR,
 * leaving amp as it was, if G_tt is singular, else MAP_OK. */
static int affine_pass(v2d *amp, int64_t n_amp, const uint64_t *cols, uint64_t offset,
                       const uint8_t *diag, const uint64_t *cross, uint8_t *seen)
{
    const int n = top_bit((uint64_t)n_amp), b = tile_bits(n_amp), nb = n - b;
    const int64_t len = (int64_t)1 << b;
    const uint64_t lo = (uint64_t)len - 1, n_tiles = (uint64_t)n_amp >> b;

    int phased = 0;
    for (int i = 0; i < n; i++)
        phased |= (diag[i] & 3) || cross[i];
    /* the permutation and phase of the positions, built by doubling */
    uint8_t perm[TILE], ql[TILE];
    perm[0] = (uint8_t)(offset & lo);
    ql[0] = 0;
    for (int i = 0; i < b; i++) {
        const int64_t h = (int64_t)1 << i;
        for (int64_t l = 0; l < h; l++) {
            perm[h + l] = (uint8_t)(perm[l] ^ cols[i]);
            ql[h + l] = (uint8_t)((ql[l] + diag[i]
                                   + 2 * __builtin_parityll(cross[i] & (uint64_t)l)) & 3);
        }
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
        return MAP_SINGULAR;

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
    return MAP_OK;
}

/* The line blocks of the shear pass (see shear_pass): a block is the
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
 * shear_pass).  V, the span of the columns B e_i, has a basis whose
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

/* The walk of shear_pass for groups of nw tiles, which the caller
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

/* The shear pass of framesim_permute, on a state of more than one tile
 * (b = TILE_BITS): amp[(t ^ B l, l ^ M (t ^ B l))] <- amp[(t, l)] for
 * every index k = (t, l), with B l the XOR of up[i] >> b over the set bits
 * i of the position l, and M t the XOR of down[j] over the set bits j of
 * the tile index t: the upper shear t ^= B l followed by the lower shear
 * l ^= M t.  The b masks up have no bit below b, and the n - b masks down
 * lie below 2**b.
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
static void shear_pass(v2d *amp, int64_t n_amp, const uint64_t *up, const uint64_t *down)
{
    const int b = TILE_BITS;
    const uint64_t n_tiles = (uint64_t)n_amp >> b;

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
}

/* Split the GF(2) matrix A whose n row masks a holds as A = L U G for
 * tiles of 2**b amplitudes, leaving the rows of G in a, the b columns of
 * U - I in up and the n - b columns of L - I in down, both zeroed by the
 * caller; 0 if A is singular, else 1.
 *
 * G maps tiles onto tiles: the tile of G k depends on the tile t of k
 * only.  U is the upper shear t ^= B l, and L the lower shear l ^= M t.
 * rank B is the rank of the block of A from position bits to tile bits,
 * the least it can be, and U = I when that block is 0.  This is a
 * parabolic Bruhat decomposition of A:
 *
 * 1. Choose M so that L A has an invertible position block: row by row, a
 *    position row of A whose low part depends on the rows already kept
 *    gets the first tile row added whose low part does not.  One exists,
 *    because the columns of A below b are independent.
 * 2. B expresses the low part of each tile row of L A in the low parts of
 *    its position rows, numbered as they were kept; G = U L A then has
 *    tile rows without low bits. */
static int tile_factors(uint64_t *a, int n, int b, uint64_t *up, uint64_t *down)
{
    const uint64_t lo = ((uint64_t)1 << b) - 1;
    echelon kept = {.dim = 0};
    uint64_t sum;
    for (int i = 0; i < b; i++) {
        if (!reduce(&kept, a[i] & lo, &sum)) {
            int j = b;
            while (j < n && !reduce(&kept, a[j] & lo, &sum))
                j++;
            if (j == n)
                return 0;
            a[i] ^= a[j];
            down[j - b] |= (uint64_t)1 << i;
        }
        add_vector(&kept, a[i] & lo);
    }
    for (int j = b; j < n; j++) {
        reduce(&kept, a[j] & lo, &sum);
        for (; sum; sum &= sum - 1) {
            const int i = __builtin_ctzll(sum);
            a[j] ^= a[i];
            up[i] |= (uint64_t)1 << j;
        }
    }
    return 1;
}

/* amp[A k ^ offset] <- i**q(k) * amp[k] for every index k
 *
 * with q(k) = sum over the set bits i of k of diag[i] + popcount(cross[i] &
 * k), mod 4: the part of a flush without a Hadamard part.  A is the GF(2)
 * matrix whose column i, the image of bit i, is cols[i], and cross must be
 * symmetric with a clear diagonal.  n_amp is a power of two 2**n and the
 * masks are below it.  seen is a zeroed scratch of one bit per tile;
 * called with seen NULL, the function touches nothing and returns the
 * bytes that scratch takes.
 *
 * tile_factors splits A into L U G, and A k ^ offset = L U (G k ^ U L
 * offset), the shears being their own inverses.  So one affine pass
 * applies G with the offset U L offset and the phase, and one shear pass U
 * and L, unless both are I.  Returns the passes made, 1 or 2, or, before
 * amp is touched, -MAP_SINGULAR if A is singular or -MAP_ASYMMETRIC. */
int64_t framesim_permute(double *amp, int64_t n_amp, const uint64_t *cols, uint64_t offset,
                         const uint8_t *diag, const uint64_t *cross, uint8_t *seen)
{
    const int n = top_bit((uint64_t)n_amp), b = tile_bits(n_amp);
    const uint64_t lo = ((uint64_t)1 << b) - 1;
    if (!seen)
        return (((uint64_t)n_amp >> b) + 7) >> 3;
    if (asymmetric(cross, n))
        return -MAP_ASYMMETRIC;
    uint64_t g[64], gcols[64], up[TILE_BITS] = {0}, down[64] = {0};
    transpose(cols, n, g);
    if (!tile_factors(g, n, b, up, down))
        return -MAP_SINGULAR;
    transpose(g, n, gcols);
    offset ^= xor_cols(down, offset >> b);
    offset ^= xor_cols(up, offset & lo);
    if (affine_pass((v2d *)amp, n_amp, gcols, offset, diag, cross, seen))
        return -MAP_SINGULAR;
    uint64_t sheared = 0;
    for (int i = 0; i < n; i++)
        sheared |= i < b ? up[i] : down[i - b];
    if (!sheared)
        return 1;
    shear_pass((v2d *)amp, n_amp, up, down);
    return 2;
}

/* amp[C k ^ off] <- i**q(k) * src[k] for k < 2**d, the other amplitudes
 * below 2**d set to 0, C k being the XOR of cols[i] over the set bits i of
 * k and q as in framesim_permute.  The caller passes src, 2**d amplitudes
 * apart from amp, d at most the qubit count, cols and off below 2**n and
 * cross below 2**d.  Returns MAP_SINGULAR for dependent columns or
 * MAP_ASYMMETRIC, before amp is touched, else MAP_OK.
 *
 * k walks upward: k + 1 = k ^ m_c, m_c = 2**(c+1) - 1, c the count of
 * trailing ones of k, so the destination steps by C m_c, and the phase by
 * q(m_c) + 2 parity(k & Gamma m_c), as q(u ^ v) = q(u) + q(v) +
 * 2 parity(u & Gamma v) mod 4 for the symmetric matrix Gamma with the
 * parities of diag on its diagonal and cross off it. */
int framesim_scatter(double *amp_, const double *src_, int d, const uint64_t *cols,
                     uint64_t off, const uint8_t *diag, const uint64_t *cross)
{
    v2d *amp = (v2d *)amp_;
    const v2d *src = (const v2d *)src_;
    echelon e = {.dim = 0};
    for (int i = 0; i < d; i++)
        if (!add_vector(&e, cols[i]))
            return MAP_SINGULAR;
    if (asymmetric(cross, d))
        return MAP_ASYMMETRIC;
    /* C m_c, Gamma m_c and q(m_c), with m_c = m_(c-1) ^ e_c: q(m_c) =
     * q(m_(c-1)) + diag[c] + 2 parity(e_c & Gamma m_(c-1)) */
    uint64_t cm[64], gm[64], csum = 0, gsum = 0;
    unsigned qm[64], q = 0;
    for (int c = 0; c < d; c++) {
        q += diag[c] + 2u * (unsigned)(gsum >> c & 1);
        cm[c] = csum ^= cols[c];
        gm[c] = gsum ^= cross[c] | (uint64_t)(diag[c] & 1) << c;
        qm[c] = q & 3;
    }
    const uint64_t last = ((uint64_t)1 << d) - 1;
    memset(amp, 0, (last + 1) * sizeof *amp);
    uint64_t at = off;
    unsigned ph = 0;
    for (uint64_t k = 0;; k++) {
        const v2d a = src[k];
        amp[at] = TURN_RE[ph] * a + TURN_IM[ph] * (v2d){a[1], a[0]};
        if (k == last)
            break;
        const int c = __builtin_ctzll(~k);
        ph = (ph + qm[c] + 2u * (unsigned)__builtin_parityll(k & gm[c])) & 3;
        at ^= cm[c];
    }
    return MAP_OK;
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
    uint64_t cols[64];
    for (int i = 0; i < n; i++)
        if (n < 64 && rows[i] >> n)
            return 0;
    transpose(rows, n, cols);
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

/* Blocked runs.  A state or register of more bytes than the L2 cache
 * holds leaves it on every pass, so each pass would cross the next cache
 * level once.  Above that size the gate loops keep their passes in a
 * pending run, and the run is applied in one walk over the cosets of the
 * span S of its partner tile masks x >> TILE_BITS: every pass of the run
 * pairs tile t with a tile of t ^ S, or touches tile t alone, so each
 * coset, of 2**dim S tiles, goes through every pass of the run in order
 * while it sits in the L2 cache (Haner & Steiger, SC17).  A pass is a
 * Clifford-loop update, a 2x2 matrix on one qubit, with or without a
 * control, or a masked pair exchange; only the partner mask x goes into S
 * (2**q for a gate on qubit q, 0 for a phase), as control and phase bits
 * only select tiles.
 * Each pair of amplitudes sees the same operations in the same order as
 * with one pass each, so the amplitudes are bit for bit the same.  A run
 * is applied before a pass on another register size, before the gate loop
 * returns (at a MEASZ or PREPZ or the end) and at the end of the flush's
 * turns; it holds at most MAX_RUN passes.  It is also applied before a
 * pass whose tile mask would break either of two rules on the coset:
 * - its 2**dim S tiles fill at most half the L2 cache;
 * - at most half as many of them as the cache has ways share their sets.
 *   The L2 sets repeat every L2 / ways bytes, 2**w tiles, and on huge
 *   pages the index bits below 2 MiB pick the set, so the tiles of a coset
 *   that agree in their w low bits (set_mask) share their sets: 2**(dim S
 *   - dim S') tiles each, S' the span of the masks' w low bits.  Masks of
 *   one bit above those, as one-qubit gates on high qubits give, would
 *   otherwise stack a coset on a few sets, whose lines then evict each
 *   other however little of the cache the coset fills (Lam, Rothberg &
 *   Wolf, ASPLOS 1991).
 * Where the system reports no ways, only the first rule holds. */
#define MAX_RUN 16
#define MAX_SPAN_BITS 10

static int64_t l2_bytes;     /* the L2 cache's size, 0 if the system does not say */
static int l2_ways;          /* its ways, 0 if the system does not say */
static int span_bits;        /* the largest dim S: 2**span_bits tiles fill half of it */
static uint64_t set_mask;    /* the w low bits of a tile index, which pick its sets */
static int stack_bits;       /* the largest dim S - dim S': 2**stack_bits is half the ways */

__attribute__((constructor)) static void read_cache_size(void)
{
    const long size = sysconf(_SC_LEVEL2_CACHE_SIZE), ways = sysconf(_SC_LEVEL2_CACHE_ASSOC);
    l2_bytes = size > 0 ? size : 0;
    l2_ways = ways > 0 ? (int)ways : 0;
    const int64_t tile_bytes = TILE * (int64_t)sizeof(v2d);
    while (span_bits < MAX_SPAN_BITS && tile_bytes << (span_bits + 1) <= l2_bytes / 2)
        span_bits++;
    stack_bits = l2_ways ? 0 : MAX_SPAN_BITS;
    while (l2_ways && 4 << stack_bits <= l2_ways)
        stack_bits++;
    for (int64_t way = l2_ways ? l2_bytes / l2_ways : 0; way >= 2 * tile_bytes; way /= 2)
        set_mask = set_mask << 1 | 1;
}

/* The L2 cache size that blocking reads (see above), in bytes; 0 if the
 * system did not report one, and then no run is blocked. */
int64_t framesim_l2_bytes(void)
{
    return l2_bytes;
}

/* The L2 cache's ways that blocking reads (see above); 0 if the system did
 * not report them, and then only the size bounds a run. */
int framesim_l2_ways(void)
{
    return l2_ways;
}

/* One pass of a run: the arguments of one framesim_clifford call (OP_TURN: x,
 * z, ca, cb and e), of one framesim_pair_exchange call (OP_EXCHANGE: mask,
 * val, x and e) or of one 2x2 pass (OP_U2: x = 2**q, the matrix u, and the
 * control mask and gate of u2_walk in mask and e, mask 0 for none). */
enum { OP_TURN, OP_EXCHANGE, OP_U2 };

typedef struct {
    int kind, e;
    uint64_t x, z, mask, val;
    double ca, cb, u[8];
} pass_op;

static inline pass_op turn_op(uint64_t x, uint64_t z, double ca, double cb, int e)
{
    return (pass_op){.kind = OP_TURN, .e = e, .x = x, .z = z, .ca = ca, .cb = cb};
}

static inline pass_op exchange_op(uint64_t mask, uint64_t val, uint64_t x, int e)
{
    return (pass_op){.kind = OP_EXCHANGE, .e = e, .x = x, .mask = mask, .val = val};
}

/* A pending run of m passes on a register of n_amp amplitudes, with an
 * echelon basis of their tile masks and one of the masks' low bits, the
 * sets of a tile (set_mask); added[k] is mask k of the first basis in the
 * order the masks were added */
typedef struct {
    int m;
    int64_t n_amp;
    echelon tiles, sets;
    uint64_t added[MAX_SPAN_BITS];
    pass_op op[MAX_RUN];
} run;

/* The walk of a run of several passes, compiled once per clone (see
 * apply_pending).  span[j] is the XOR of added[k] over the bits k of j, so
 * the index of tile mask x >> b in a coset is its sum in the basis (see
 * reduce).  The coset of a tile has one member with none of the basis's
 * top bits set, its rep. */
static inline __attribute__((always_inline)) void
run_walk(double *amp, const run *p, int wide)
{
    const int b = TILE_BITS, dim = p->tiles.dim;
    v4d pat[MAX_RUN][2][TILE / 2], k[MAX_RUN][8];
    uint64_t span[1 << MAX_SPAN_BITS], xj[MAX_RUN];
    span[0] = 0;
    for (int k = 0; k < dim; k++)
        for (int j = 0; j < 1 << k; j++)
            span[(1 << k) + j] = span[j] ^ p->added[k];
    for (int i = 0; i < p->m; i++) {
        const pass_op *o = p->op + i;
        if (o->kind == OP_TURN)
            patterns(pat[i], TILE / 2, o->z, o->cb, o->e);
        else if (o->kind == OP_U2)
            u2_coefs(k[i], __builtin_ctzll(o->x), o->u);
        reduce(&p->tiles, o->x >> b, xj + i);
    }
    const uint64_t pivots = p->tiles.top, n_tiles = (uint64_t)p->n_amp >> b;
    for (uint64_t rep = 0; rep < n_tiles; rep = ((rep | pivots) + 1) & ~pivots) {
        const tile_set ts = {span, rep, (int64_t)1 << dim};
        for (int i = 0; i < p->m; i++) {
            const pass_op *o = p->op + i;
            if (o->kind == OP_TURN)
                walk((v4d *)amp, ts, b, o->x, xj[i], o->z, pat[i], o->ca, o->e, wide);
            else if (o->kind == OP_U2)
                u2_walk((v4d *)amp, ts, b, __builtin_ctzll(o->x), xj[i], k[i], o->mask, o->e,
                        wide);
            else
                exchange_walk((v2d *)amp, ts, b, o->mask, o->val, o->x, xj[i], o->e);
        }
    }
}

/* The two clones of run_walk, each starting on a cache line: where the
 * loops inlined in it fall in the lines then depends on its own code only,
 * and a blocked phase pass (S) ran 9-10% slower where the function started
 * 48 bytes into a line instead of 32. */
__attribute__((aligned(64))) static void run_generic(double *amp, const run *p)
{
    run_walk(amp, p, 0);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"), aligned(64))) static void run_avx2(double *amp,
                                                                       const run *p)
{
    run_walk(amp, p, 1);
}
#endif

/* The passes of one gate loop or flush, applied to amp: the pending run,
 * the seconds spent in passes and the counts of passes, of the amplitudes
 * they cover and of blocked runs, added to count[0..2] (the baseline's loop
 * adds its fused gates to count[3] and its absorbed gates to count[4]). */
typedef struct {
    double *amp;
    int64_t *count;
    double spent;
    run pending;
} passes;

/* Apply the pending run, if any: a run of one in one pass over the whole
 * register, a longer one in one run_walk. */
static void apply_pending(passes *s)
{
    run *p = &s->pending;
    if (!p->m)
        return;
    const double t0 = seconds();
    const pass_op *o = p->op;
    if (p->m > 1) {
#if defined(__x86_64__)
        if (use_avx2)
            run_avx2(s->amp, p);
        else
#endif
            run_generic(s->amp, p);
    } else if (o->kind == OP_TURN)
        framesim_clifford(s->amp, p->n_amp, o->x, o->z, o->ca, o->cb, o->e);
    else if (o->kind == OP_U2)
        u2_pass(s->amp, p->n_amp, __builtin_ctzll(o->x), o->u, o->mask, o->e);
    else
        framesim_pair_exchange(s->amp, p->n_amp, o->mask, o->val, o->x, o->e);
    s->spent += seconds() - t0;
    s->count[0]++;
    s->count[1] += p->n_amp;
    s->count[2] += p->m > 1;
    p->m = 0;
}

/* Apply the pass o to the first n_amp amplitudes: at once, or, on more
 * amplitudes than the L2 cache holds, as part of the pending run (see
 * above), which is applied first if o cannot join it. */
static void push(passes *s, pass_op o, int64_t n_amp)
{
    const uint64_t xt = o.x >> TILE_BITS;
    run *p = &s->pending;
    uint64_t sum;
    /* a mask new to S adds one to dim S, and to dim S - dim S' too unless
     * its low bits are new to S' */
    if (p->m && (p->n_amp != n_amp || p->m == MAX_RUN
                 || (reduce(&p->tiles, xt, &sum)
                     && (p->tiles.dim >= span_bits
                         || (!reduce(&p->sets, xt & set_mask, &sum)
                             && p->tiles.dim - p->sets.dim >= stack_bits)))))
        apply_pending(s);
    if (!p->m) {
        p->n_amp = n_amp;
        p->tiles.top = p->sets.top = 0;
        p->tiles.dim = p->sets.dim = 0;
    }
    if (add_vector(&p->tiles, xt))
        p->added[p->tiles.dim - 1] = xt;
    add_vector(&p->sets, xt & set_mask);
    p->op[p->m++] = o;
    if (!l2_bytes || n_amp * (int64_t)sizeof(v2d) <= l2_bytes)
        apply_pending(s); /* the register fits the L2 cache: one pass now */
}

/* R_P(t) = cos(t/2)*I - i*sin(t/2)*P on the register, P the frame image a:
 * map a onto the register by reg_map, activating a qubit if it must, and
 * push the framesim_clifford pass over its 2**max(d, 1) amplitudes with
 * the arguments of statevector._pauli_update. */
static void rotate(passes *s, reg *r, pauli a, double t)
{
    reg_map(r, &a, 1);
    const double h = 0.5 * t;
    push(s, turn_op(a.x, a.z, cos(h), sin(h), (int)((3 + a.p - popcount(a.x & a.z)) & 3)),
         (int64_t)1 << (r->d > 1 ? r->d : 1));
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
 * i*eff_x[q]*eff_z[q] for RY, and applies R_P(t) to the register (the n
 * row masks a_rows and the active count *active, both updated in place;
 * see rotate).  The seconds spent in those passes are added to
 * *rotation_s, and the counts of passes, of the amplitudes they cover and
 * of blocked runs to count[0..2].  The codes and qubits are trusted:
 * Circuit.append checks them. */
int64_t framesim_run_gates(double *amp, int n, uint64_t *fx, uint64_t *fz, uint8_t *fp,
                           uint64_t *a_rows, int64_t *active, const int32_t *ops,
                           const double *angles, int64_t start, int64_t stop,
                           double *rotation_s, int64_t *count)
{
    const frame f = {fx, fz, fp};
    reg r;
    if (!reg_open(&r, a_rows, n, *active))
        return -1;
    passes s = {.amp = amp, .count = count};
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
        rotate(&s, &r, axis, angles[k]);
    }
out:
    apply_pending(&s);
    *active = r.d;
    *rotation_s += s.spent;
    return k;
}

/* m <- the matrix of the one-qubit gate `code`, 8 doubles as u2_walk takes
 * them, with the cosines and sines of the Clifford-loop passes of RX, RY
 * and RZ */
static void gate_matrix(int code, double angle, double *m)
{
    const double r = 0.70710678118654752440, c = cos(0.5 * angle), s = sin(0.5 * angle);
    const double fixed[6][8] = {
        [G_H] = {r, 0, r, 0, r, 0, -r, 0},   [G_S] = {1, 0, 0, 0, 0, 0, 0, 1},
        [G_SDG] = {1, 0, 0, 0, 0, 0, 0, -1}, [G_X] = {0, 0, 1, 0, 1, 0, 0, 0},
        [G_Y] = {0, 0, 0, -1, 0, 1, 0, 0},   [G_Z] = {1, 0, 0, 0, 0, 0, -1, 0}};
    const double rx[8] = {c, 0, 0, -s, 0, -s, c, 0}, ry[8] = {c, 0, -s, 0, s, 0, c, 0},
                 rz[8] = {c, -s, 0, 0, 0, 0, c, s};
    memcpy(m, code == G_RX ? rx : code == G_RY ? ry : code == G_RZ ? rz : fixed[code],
           sizeof rx);
}

/* The framesim_apply_u2 pass of the one-qubit gate `code` on the qubit of
 * mask a */
static pass_op u2_op(int code, uint64_t a, double angle)
{
    pass_op o = {.kind = OP_U2, .x = a};
    gate_matrix(code, angle, o.u);
    return o;
}

/* The baseline's pass for gate `code` on the qubits of the masks a and b
 * (b is unused by one-qubit gates): the pass StateVector.apply_gate makes
 * of it, with the same arguments.  X, Y, RX, RY and RZ are a
 * framesim_clifford pass, H a framesim_apply_u2 pass of its matrix, and Z,
 * S, SDG, CX, CZ and SWAP a framesim_pair_exchange pass. */
static pass_op gate_pass(int code, uint64_t a, uint64_t b, double angle)
{
    const double h = 0.5 * angle;
    switch (code) {
    case G_H:
        return u2_op(G_H, a, 0.0);
    case G_S:
        return exchange_op(a, a, 0, 1);
    case G_SDG:
        return exchange_op(a, a, 0, 3);
    case G_X:
        return turn_op(a, 0, 0.0, 1.0, 0);
    case G_Y:
        return turn_op(a, a, 0.0, 1.0, 3);
    case G_Z:
        return exchange_op(a, a, 0, 2);
    case G_CX:
        return exchange_op(a | b, a, b, 0);
    case G_CZ:
        return exchange_op(a | b, a | b, 0, 2);
    case G_SWAP:
        return exchange_op(a | b, b, a | b, 0);
    case G_RX:
        return turn_op(a, 0, cos(h), sin(h), 3);
    case G_RY:
        return turn_op(a, a, cos(h), sin(h), 2);
    default: /* G_RZ */
        return turn_op(0, a, cos(h), sin(h), 3);
    }
}

/* m <- g m for complex 2x2 matrices of 8 doubles */
static void left_multiply(const double *g, double *m)
{
    double p[8];
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 2; j++) {
            const double *a = g + 4 * i, *b0 = m + 2 * j, *b1 = m + 4 + 2 * j;
            p[4 * i + 2 * j] = a[0] * b0[0] - a[1] * b0[1] + a[2] * b1[0] - a[3] * b1[1];
            p[4 * i + 2 * j + 1] = a[0] * b0[1] + a[1] * b0[0] + a[2] * b1[1] + a[3] * b1[0];
        }
    memcpy(m, p, sizeof p);
}

/* The one-qubit gates of one qubit that the baseline's loop holds back:
 * the codes and angles of the `left` gates that remain after adjacent
 * inverse pairs cancelled, in stream order, the count of gates taken in,
 * and the stream index of the first. */
#define MAX_FUSE 8

typedef struct {
    int left, taken;
    int64_t since;
    int32_t code[MAX_FUSE];
    double angle[MAX_FUSE];
} held;

/* The baseline's loop: its passes, the gates it holds per qubit, the
 * qubits holding gates (open), and those holding one gate whose pass
 * rounds, H, RX, RY or RZ (lone). */
typedef struct {
    passes s;
    int64_t n_amp;
    uint64_t open, lone;
    held q[64];
} baseline;

/* 1 if gate b undoes gate a: H H, S SDG, SDG S, X X, Y Y or Z Z */
static int undoes(int32_t a, int32_t b)
{
    return a <= G_Z && b == (a == G_S ? G_SDG : a == G_SDG ? G_S : a);
}

/* Apply the gates qubit q holds and release it: none if all cancelled,
 * the pass of the gate left if one is, else one framesim_apply_u2 pass of
 * their product.  The gates that make no pass of their own are added to
 * count[3]: all of them, or all but one.  A CX or CZ `code` with its
 * control on the qubit of mask c (c is 0 for none), which comes next if
 * that qubit holds no gates, joins a 2x2 pass, a lone H or a product (see
 * u2_walk); returns 1 if it joined, and adds it to count[4]. */
static int settle(baseline *bl, int q, int32_t code, uint64_t c)
{
    const held *h = bl->q + q;
    const uint64_t bit = (uint64_t)1 << q;
    bl->open &= ~bit;
    bl->lone &= ~bit;
    bl->s.count[3] += h->taken - (h->left > 0);
    if (!h->left)
        return 0;
    pass_op o = gate_pass(h->code[0], bit, 0, h->angle[0]);
    if (h->left > 1) {
        o = u2_op(h->code[0], bit, h->angle[0]);
        for (int i = 1; i < h->left; i++) {
            double g[8];
            gate_matrix(h->code[i], h->angle[i], g);
            left_multiply(g, o.u);
        }
    }
    const int joins = o.kind == OP_U2 && c && !(bl->open & c);
    if (joins) {
        o.mask = c;
        o.e = code == G_CZ ? 2 : 0;
        bl->s.count[4]++;
    }
    push(&bl->s, o, bl->n_amp);
    return joins;
}

/* Settle qubit q if it holds gates, with the gate of settle; returns 1 if
 * that gate joined q's pass.  A lone gate first waits for every lone gate
 * taken in before it, in the order they came: so when no gate fuses, the
 * passes that round come in stream order, and the others, which only move
 * and negate amplitudes, commute with them bit for bit. */
static int release(baseline *bl, int q, int32_t code, uint64_t c)
{
    if (!(bl->open >> q & 1))
        return 0;
    if (bl->lone >> q & 1)
        for (;;) {
            int first = q;
            for (uint64_t m = bl->lone; m; m &= m - 1) {
                const int p = __builtin_ctzll(m);
                if (bl->q[p].since < bl->q[first].since)
                    first = p;
            }
            if (first == q)
                break;
            settle(bl, first, 0, 0);
        }
    return settle(bl, q, code, c);
}

/* Take the one-qubit gate `code` at stream index k into what qubit q
 * holds: it cancels the last gate held if it undoes it, else joins them,
 * once the MAX_FUSE gates held are settled if they are full. */
static void take(baseline *bl, int q, int32_t code, double angle, int64_t k)
{
    held *h = bl->q + q;
    const uint64_t bit = (uint64_t)1 << q;
    if ((bl->open & bit) && h->left == MAX_FUSE)
        release(bl, q, 0, 0);
    if (!(bl->open & bit)) {
        h->left = h->taken = 0;
        h->since = k;
        bl->open |= bit;
    }
    h->taken++;
    if (h->left && undoes(h->code[h->left - 1], code))
        h->left--;
    else {
        h->code[h->left] = code;
        h->angle[h->left++] = angle;
    }
    const int32_t c = h->code[0];
    if (h->left == 1 && (c == G_H || c == G_RX || c == G_RY || c == G_RZ))
        bl->lone |= bit;
    else
        bl->lone &= ~bit;
}

/* Run gates start, start+1, ... of a lowered circuit on the baseline, up to
 * the first MEASZ or PREPZ or to stop, and return the index of the first
 * gate not run.  ops and angles are as in framesim_run_gates, on the n
 * qubits of the 2**n amplitudes amp.
 *
 * Each two-qubit gate is its gate_pass over amp.  The one-qubit gates of a
 * qubit are held back (see take) until a two-qubit gate on that qubit
 * comes, or the call returns, and then make one pass at most (see settle):
 * a run of one-qubit gates on one qubit is one 2x2 matrix, the first step
 * of the gate fusion of Doi & Horii (IEEE QCE 2020).  Gates that cancel
 * are found on their codes, never by comparing numbers.  A gate left alone
 * makes its gate_pass, so that when no gate fuses the amplitudes are those
 * of one pass per gate, bit for bit; a fused run rounds once where its
 * gates rounded one by one.  A CX whose target, or a CZ either of whose
 * qubits, is settled last and makes a 2x2 pass (a lone H or a product)
 * makes no pass of its own: that pass applies it, with the amplitudes of
 * the two passes (see u2_walk).  On more amplitudes than the L2 cache
 * holds, the passes are blocked in runs (see push).  The counts of passes,
 * of the amplitudes they cover and of blocked runs are added to
 * count[0..2], as framesim_run_gates adds them, the one-qubit gates that
 * made no pass of their own to count[3], and the two-qubit gates that made
 * none to count[4]. */
int64_t framesim_baseline_gates(double *amp, int n, const int32_t *ops, const double *angles,
                                int64_t start, int64_t stop, int64_t *count)
{
    baseline bl; /* bl.q[i] is set when qubit i opens */
    bl.s = (passes){.amp = amp, .count = count};
    bl.n_amp = (int64_t)1 << n;
    bl.open = bl.lone = 0;
    int64_t k = start;
    for (; k < stop; k++) {
        const int32_t *g = ops + 3 * k;
        if (g[0] == G_MEASZ || g[0] == G_PREPZ)
            break; /* the caller draws the outcome */
        if (g[0] == G_CX || g[0] == G_CZ || g[0] == G_SWAP) {
            /* the qubit settled last may take the gate: a CX's target, or
             * either qubit of a CZ */
            const uint64_t a = (uint64_t)1 << g[1], b = (uint64_t)1 << g[2];
            if (!release(&bl, g[1], g[0], g[0] == G_CZ ? b : 0)
                && !release(&bl, g[2], g[0], g[0] == G_SWAP ? 0 : a))
                push(&bl.s, gate_pass(g[0], a, b, 0.0), bl.n_amp);
        } else
            take(&bl, g[1], g[0], angles[k], k);
    }
    while (bl.open)
        release(&bl, __builtin_ctzll(bl.open), 0, 0);
    apply_pending(&bl.s);
    return k;
}

/* The flush: the frame's Clifford U written as h quarter turns followed by
 * one Clifford F without a Hadamard part, U = F T_h ... T_1, as
 * frame.split_clifford writes it, word for word, and applied to the
 * register.  A form F|k> = i**q(k) |R k ^ b> is held in 3n + 1 words: the
 * row masks of R, the cross masks of q, the diag entries of q (0..3) and
 * the offset b (see frame.HadamardFree). */

enum { SPLIT_INVALID = -1, SPLIT_SINGULAR = -2, SPLIT_INCONSISTENT = -3, SPLIT_NO_PHASE = -4 };

/* 1 if a and b anticommute */
static inline unsigned anti(pauli a, pauli b)
{
    return popcount((a.x & b.z) ^ (a.z & b.x)) & 1;
}

/* 1 if the 2n rows of f are a frame (PauliFrame.validate): every phase 0
 * or 2, every mask below 2**n, and eff_z[i] anticommuting with eff_x[i]
 * alone of the other rows, and eff_x[i] with eff_z[i] alone. */
static int valid_frame(frame f, int n)
{
    for (int i = 0; i < 2 * n; i++)
        if ((f.p[i] & ~2u) || ((f.x[i] | f.z[i]) & ~below(n)))
            return 0;
    for (int i = 1; i < 2 * n; i++)
        for (int j = 0; j < i; j++)
            if (anti(row(f, i), row(f, j)) != (unsigned)(i - j == n))
                return 0;
    return 1;
}

/* q(k) mod 4 for the form's diag and cross masks (HadamardFree.phase) */
static unsigned form_phase(const uint64_t *diag, const uint64_t *cross, uint64_t k)
{
    unsigned q = 0;
    for (uint64_t u = k; u; u &= u - 1) {
        const int i = __builtin_ctzll(u);
        q += (unsigned)diag[i] + popcount(cross[i] & k);
    }
    return q & 3;
}

/* z with parity(z & a[i]) = c[i] for i < n, as gf2.solve picks it: the
 * equations go into an echelon basis in order (add_vector), and bit k of
 * rhs is the right-hand side of added equation k, so a basis vector's is
 * the parity of rhs & its sum, as gf2.solve carries it in a tag.  The
 * pivots are then taken in ascending order, each setting its bit of z if
 * its equation is not yet met; free coordinates are 0.  Returns 0 if the
 * system has no solution. */
static int solve(const uint64_t *a, const unsigned *c, int n, uint64_t *z)
{
    echelon e = {.dim = 0};
    uint64_t rhs = 0, s, r = 0;
    for (int i = 0; i < n; i++) {
        if (reduce(&e, a[i], &s)) {
            rhs |= (uint64_t)c[i] << e.dim;
            add_vector(&e, a[i]);
        } else if ((unsigned)__builtin_parityll(s & rhs) != c[i])
            return 0;
    }
    for (uint64_t t = e.top; t; t &= t - 1) {
        const int p = __builtin_ctzll(t);
        if (__builtin_parityll(r & e.vec[p]) != __builtin_parityll(e.sum[p] & rhs))
            r |= (uint64_t)1 << p;
    }
    *z = r;
    return 1;
}

/* Split the valid frame f of n qubits, which it rewrites, as
 * split_clifford does: while an eff_z row has an x part, take the first,
 * v, with top bit t, solve parity(z & x_i) = x_i[t] ^ parity(v & z_i) over
 * the eff_z rows (x_i, z_i), and conjugate every row by the quarter turn
 * about Q = X**v Z**z, which clears bit t of the x parts of the eff_z
 * rows; axes[k] is Q of turn k.  The rest is then read off the rows into
 * form.  Returns h, or SPLIT_INCONSISTENT or SPLIT_NO_PHASE, which a valid
 * frame never gives. */
static int split(frame f, int n, pauli *axes, uint64_t *form)
{
    int h = 0;
    for (;;) {
        int r = 0;
        while (r < n && !f.x[r])
            r++;
        if (r == n)
            break;
        const uint64_t v = f.x[r], t = (uint64_t)1 << top_bit(v);
        unsigned c[64];
        for (int i = 0; i < n; i++)
            c[i] = (unsigned)((f.x[i] & t) != 0) ^ (unsigned)__builtin_parityll(v & f.z[i]);
        uint64_t z;
        if (!solve(f.x, c, n, &z))
            return SPLIT_INCONSISTENT;
        const pauli q = {v, z, 0};
        axes[h++] = q;
        for (int i = 0; i < 2 * n; i++)
            if (anti(q, row(f, i)))
                set_row(f, i, mul(q, row(f, i), 3)); /* -i Q E */
    }
    /* eff_z[j] = (-1)**b_j Z**a_j gives row j and offset bit j; Gamma = W A
     * for the z parts w_j of the eff_x rows gives the low bit of diag and
     * cross, and q(d_j) = -s_j the high bits of diag */
    uint64_t *rows = form, *cross = form + n, *diag = form + 2 * n, gamma[64] = {0};
    form[3 * n] = 0;
    for (int j = 0; j < n; j++) {
        rows[j] = f.z[j];
        form[3 * n] |= (uint64_t)(f.p[j] >> 1) << j;
        for (uint64_t w = f.z[n + j]; w; w &= w - 1)
            gamma[__builtin_ctzll(w)] ^= f.z[j];
    }
    for (int i = 0; i < n; i++) {
        diag[i] = gamma[i] >> i & 1;
        cross[i] = gamma[i] & ~((uint64_t)1 << i);
    }
    uint64_t high = 0;
    for (int j = 0; j < n; j++) {
        const pauli e = row(f, n + j);
        const unsigned miss = (0u - e.p - popcount(e.x & e.z) - form_phase(diag, cross, e.x)) & 3;
        if (miss & 1)
            return SPLIT_NO_PHASE;
        if (miss)
            high ^= rows[j];
    }
    for (int i = 0; i < n; i++)
        diag[i] += 2 * (high >> i & 1);
    return h;
}

/* Fold the frame's Clifford U and the index map P_A into the register, as
 * HybridState.flush_to_origin does on the words: check the frame (see
 * valid_frame), split U on a copy of its rows (see split), apply each turn
 * R_Q(pi/2) as framesim_run_gates applies a rotation (see rotate), and
 * write F P_A, F the rest and A as the turns leave it (HadamardFree.after),
 * into form.  a_rows and *active are the register's index map and active
 * count, updated in place; the frame's rows fx, fz, fp (2n rows of n <= 64
 * qubits) are left as they are, and the seconds spent in the turn passes
 * are added to *turn_s and their counts to count[0..2], as the gate loop
 * adds them.  Returns h, or, before anything is written,
 * SPLIT_INVALID for an invalid frame, SPLIT_SINGULAR if the index map is
 * not invertible, SPLIT_INCONSISTENT or SPLIT_NO_PHASE. */
int framesim_flush(double *amp, int n, const uint64_t *fx, const uint64_t *fz,
                   const uint8_t *fp, uint64_t *a_rows, int64_t *active, uint64_t *form,
                   double *turn_s, int64_t *count)
{
    uint64_t x[128], z[128], rest[3 * 64 + 1];
    uint8_t p[128];
    const frame f = {x, z, p};
    reg r;
    memcpy(x, fx, 2 * (size_t)n * sizeof *x);
    memcpy(z, fz, 2 * (size_t)n * sizeof *z);
    memcpy(p, fp, 2 * (size_t)n);
    if (!valid_frame(f, n))
        return SPLIT_INVALID;
    if (!reg_open(&r, a_rows, n, *active))
        return SPLIT_SINGULAR;
    pauli axes[64];
    const int h = split(f, n, axes, rest);
    if (h < 0)
        return h;

    passes s = {.amp = amp, .count = count};
    for (int k = 0; k < h; k++)
        rotate(&s, &r, axes[k], 1.57079632679489661923);
    apply_pending(&s);

    /* F P_A: rows R A, diag q(A e_i), cross the off-diagonal part of
     * A^T Gamma A, Gamma having diag's parities on its diagonal */
    const uint64_t *rows = rest, *cross = rest + n, *diag = rest + 2 * n;
    uint64_t cols[64], ga[64];
    transpose(r.rows, n, cols);
    for (int i = 0; i < n; i++)
        ga[i] = xor_cols(r.rows, cross[i] | (diag[i] & 1) << i); /* Gamma A */
    for (int i = 0; i < n; i++) {
        form[i] = xor_cols(r.rows, rows[i]);
        form[n + i] = xor_cols(ga, cols[i]) & ~((uint64_t)1 << i);
        form[2 * n + i] = form_phase(diag, cross, cols[i]);
    }
    form[3 * n] = rest[3 * n];
    *active = r.d;
    *turn_s += s.spent;
    return h;
}
