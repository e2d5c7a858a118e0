/* Single-pass, in-place amplitude loops for framesim's state updates.
 *
 * The state is 2**n complex doubles stored as interleaved (re, im) pairs;
 * bit j of an index is the value of qubit j.
 *
 * The two rotation kernels and the Clifford loop walk the state in tiles
 * of TILE amplitudes.  A rotation pairs index k with k ^ x: the x bits
 * inside a tile only permute positions within it, the bits above pick the
 * partner tile.  Every tile is therefore read and written once, next to
 * its partner, whatever the weight of the Pauli operator.  Partners are
 * visited out of address order, which the hardware prefetchers do not
 * follow, so each loop prefetches the tiles it will visit next, one cache
 * line per line it updates.  The sign (-1)**parity(k & z) splits the same
 * way as the index, into one sign per tile and a per-position table built
 * once per call.
 *
 * The rotation kernels take any complex coefficients.  The Clifford loop
 * serves the updates whose coefficients are powers of i times a real
 * scale (Pauli operators, turns by multiples of pi/2, and a whole run of
 * single-qubit Cliffords without a Hadamard part, whose power of i varies
 * with the index through a phase mask m), and applies each power of i as
 * an element swap and a sign pattern instead of a complex multiply.
 *
 * The two gate kernels at the end of the file serve fixed gates: the
 * Hadamard gate on one qubit, and a masked pair exchange that swaps pairs
 * of amplitudes (CX, SWAP and the flush's qubit relabelings) or multiplies
 * a masked subset by a power of i (Z, S, SDG and CZ).  Both walk
 * contiguous runs of amplitudes in address order, a cache line at a time
 * where the runs are shorter, and allocate nothing.
 *
 * Built by _kernels.py with the system C compiler and loaded with ctypes.
 */
#include <stdint.h>

#define TILE_BITS 8
#define TILE (1 << TILE_BITS)
#define LINE 4 /* amplitudes per 64-byte cache line */

typedef struct {
    double re, im;
} cplx;

static inline cplx cmul(cplx a, cplx b)
{
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

static inline cplx cneg(cplx a)
{
    cplx r = {-a.re, -a.im};
    return r;
}

static inline void prefetch(const void *p)
{
    __builtin_prefetch(p, 1, 3);
}

/* c*a + w*b */
static inline cplx mix(double c, cplx a, cplx w, cplx b)
{
    cplx wb = cmul(w, b);
    cplx r = {c * a.re + wb.re, c * a.im + wb.im};
    return r;
}

/* *a <- c*a + wa*b;  *b <- c*b + wb*a */
static inline void update(cplx *a, cplx *b, cplx wa, cplx wb, double c)
{
    cplx va = *a, vb = *b;
    *a = mix(c, va, wa, vb);
    *b = mix(c, vb, wb, va);
}

/* Tile size for a state of n_amp amplitudes: TILE, or the whole state. */
static inline int tile_bits(int64_t n_amp)
{
    int b = 0;
    while (b < TILE_BITS && ((int64_t)1 << (b + 1)) <= n_amp)
        b++;
    return b;
}

/* sign[j] = (-1)**parity(j & z) for j < len, built by doubling. */
static void sign_table(double *sign, int64_t len, uint64_t z)
{
    sign[0] = 1.0;
    for (int64_t m = 1; m < len; m <<= 1)
        for (int64_t j = 0; j < m; j++)
            sign[m + j] = (z & (uint64_t)m) ? -sign[j] : sign[j];
}

/* Update the pairs (t[j], u[j ^ m]) for j < len, for two disjoint blocks t
 * and u, and prefetch the blocks nt and nu visited next.  A line of t and
 * its partner amplitudes in u are all loaded before any is stored: t and u
 * often sit a multiple of 4 KiB apart, and a load that follows a store to
 * the same address modulo 4 KiB waits for that store. */
static void pair_blocks(cplx *restrict t, cplx *restrict u,
                        const cplx *wt, const cplx *wu,
                        const cplx *nt, const cplx *nu,
                        int64_t len, int64_t m, double c)
{
    int64_t j = 0;
    for (; j + LINE <= len; j += LINE) {
        cplx a[LINE], b[LINE];
        prefetch(nt + j);
        prefetch(nu + j);
        for (int64_t i = 0; i < LINE; i++) {
            a[i] = t[j + i];
            b[i] = u[(j + i) ^ m];
        }
        for (int64_t i = 0; i < LINE; i++) {
            t[j + i] = mix(c, a[i], wt[j + i], b[i]);
            u[(j + i) ^ m] = mix(c, b[i], wu[(j + i) ^ m], a[i]);
        }
    }
    for (; j < len; j++) /* blocks shorter than a line: a one-qubit state */
        update(t + j, u + (j ^ m), wt[j], wu[j ^ m], c);
}

/* amp[k0] <- c*a0 + u0*sg*a1;  amp[k1] <- c*a1 + u1*sg*a0
 *
 * for every pair k0, k1 = k0 ^ x with bit `pivot` of k0 clear, where
 * sg = (-1)**parity(k0 & z).  `pivot` must be a set bit of x and x must
 * be nonzero and below n_amp, a power of two.
 *
 * Written per index k, the update is new[k] = c*a[k] + w(k)*a[k ^ x] with
 * w(k) = (-1)**parity(k & z) * (u0 if bit pivot of k is clear else
 * u1*(-1)**parity(x & z)), since parity(k1 & z) = parity(k0 & z) ^
 * parity(x & z).  The table w below holds w(k) split into tile and position.
 */
void framesim_rotation_pairs(double *amp_, int64_t n_amp, uint64_t x,
                             uint64_t z, int pivot, double c,
                             double u0_re, double u0_im,
                             double u1_re, double u1_im)
{
    cplx *amp = (cplx *)amp_;
    const int b = tile_bits(n_amp);
    const int64_t len = (int64_t)1 << b;
    const int64_t n_tiles = n_amp >> b;
    const uint64_t lo = (uint64_t)len - 1;
    const uint64_t xl = x & lo, xt = x >> b, zt = z >> b;
    const cplx u0 = {u0_re, u0_im};
    cplx u1 = {u1_re, u1_im};
    if (__builtin_parityll(x & z))
        u1 = cneg(u1);

    /* w[h][s][j] = w(k) for position j of a tile whose sign bit
     * parity(t & zt) is s, where h is the pivot bit if it lies above the
     * tile; only h = 0 is used otherwise */
    double sign[TILE];
    cplx w[2][2][TILE];
    sign_table(sign, len, z & lo);
    for (int h = 0; h < (pivot < b ? 1 : 2); h++)
        for (int64_t j = 0; j < len; j++) {
            int set = pivot < b ? (int)((j >> pivot) & 1) : h;
            cplx base = set ? u1 : u0;
            base.re *= sign[j];
            base.im *= sign[j];
            w[h][0][j] = base;
            w[h][1][j] = cneg(base);
        }

    if (xt == 0) {
        /* partners share a tile.  With q the highest bit of xl, the blocks
         * of 2**q positions with bit q clear pair with the blocks right
         * above them through j -> j ^ m. */
        const int q = 63 - __builtin_clzll(xl);
        const int64_t half = (int64_t)1 << q, m = (int64_t)(xl ^ (uint64_t)half);
        for (int64_t t = 0; t < n_tiles; t++) {
            cplx *tile = amp + (t << b);
            const cplx *next = t + 1 < n_tiles ? tile + len : tile;
            const cplx *wt = w[0][__builtin_parityll((uint64_t)t & zt)];
            if (half >= LINE || len < LINE) {
                for (int64_t blk = 0; blk < len; blk += 2 * half)
                    pair_blocks(tile + blk, tile + blk + half, wt + blk,
                                wt + blk + half, next + blk, next + blk + half,
                                half, m, c);
                continue;
            }
            /* x is 1, 2 or 3: two pairs share each cache line */
            const int64_t j1 = half == 1 ? 2 : 1;
            for (int64_t base = 0; base < len; base += LINE) {
                cplx *p = tile + base;
                const cplx *wp = wt + base;
                prefetch(next + base);
                update(p, p + (int64_t)xl, wp[0], wp[xl], c);
                update(p + j1, p + (j1 ^ (int64_t)xl), wp[j1], wp[j1 ^ (int64_t)xl], c);
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
        const int h1 = pivot >= b ? (int)((t >> (pivot - b)) & 1) : 0;
        const int h2 = pivot >= b ? (int)((t2 >> (pivot - b)) & 1) : 0;
        pair_blocks(amp + (t << b), amp + (t2 << b),
                    w[h1][__builtin_parityll((uint64_t)t & zt)],
                    w[h2][__builtin_parityll((uint64_t)t2 & zt)],
                    amp + (next << b), amp + ((next ^ (int64_t)xt) << b),
                    len, (int64_t)xl, c);
    }
}

/* amp[k] *= f_even or f_odd depending on parity(k & z). */
void framesim_rotation_diag(double *amp_, int64_t n_amp, uint64_t z,
                            double fe_re, double fe_im,
                            double fo_re, double fo_im)
{
    cplx *amp = (cplx *)amp_;
    const int b = tile_bits(n_amp);
    const int64_t len = (int64_t)1 << b;
    const int64_t n_tiles = n_amp >> b;
    const uint64_t lo = (uint64_t)len - 1;
    const uint64_t zt = z >> b;
    const cplx fe = {fe_re, fe_im}, fo = {fo_re, fo_im};

    double sign[TILE];
    cplx f[2][TILE];
    sign_table(sign, len, z & lo);
    for (int64_t j = 0; j < len; j++) {
        f[0][j] = sign[j] > 0 ? fe : fo;
        f[1][j] = sign[j] > 0 ? fo : fe;
    }
    for (int64_t t = 0; t < n_tiles; t++) {
        cplx *restrict tile = amp + (t << b);
        const cplx *restrict ft = f[__builtin_parityll((uint64_t)t & zt)];
        for (int64_t j = 0; j < len; j++)
            tile[j] = cmul(tile[j], ft[j]);
    }
}


/* The Clifford loop and the gate loops below hold each amplitude as one
 * 16-byte vector of (re, im).  Multiplying by a power of i is then an
 * element swap followed by a pattern of signs, with no complex multiply. */
typedef double v2d __attribute__((vector_size(16)));
typedef long long v2i __attribute__((vector_size(16)));

/* i**e * v = swap(v) * TURN[e] for odd e, and v * TURN[e] for even e */
static const v2d TURN[4] = {{1, 1}, {-1, 1}, {-1, -1}, {1, -1}};

/* Element order of a partner amplitude: as it is, swapped, or swapped
 * where the lane mask `odd` of its position is set. */
enum { KEEP, SWAP, BLEND };

static inline v2d order(v2d v, int how, v2i odd)
{
    const v2d s = {v[1], v[0]};
    if (how == KEEP)
        return v;
    if (how == SWAP)
        return s;
    return (v2d)(((v2i)s & odd) | ((v2i)v & ~odd));
}

/* *a <- cd*a + pa*order(b);  *b <- cd*b + pb*order(a) */
static inline __attribute__((always_inline)) void
turn_pair(v2d *a, v2d *b, v2d pa, v2d pb, v2i oa, v2i ob, v2d cd, int how)
{
    const v2d va = *a, vb = *b;
    *a = cd * va + pa * order(vb, how, oa);
    *b = cd * vb + pb * order(va, how, ob);
}

/* turn_pair on (t[j], u[j ^ m]) for j < len, loading, storing and
 * prefetching as pair_blocks does. */
static inline __attribute__((always_inline)) void
turn_blocks(v2d *restrict t, v2d *restrict u, const v2d *pt, const v2d *pu,
            const v2i *ot, const v2i *ou, const v2d *nt, const v2d *nu,
            int64_t len, int64_t m, v2d cd, int how)
{
    int64_t j = 0;
    for (; j + LINE <= len; j += LINE) {
        v2d a[LINE], b[LINE];
        prefetch(nt + j);
        prefetch(nu + j);
        for (int64_t i = 0; i < LINE; i++) {
            a[i] = t[j + i];
            b[i] = u[(j + i) ^ m];
        }
        for (int64_t i = 0; i < LINE; i++) {
            const int64_t k = (j + i) ^ m;
            t[j + i] = cd * a[i] + pt[j + i] * order(b[i], how, ot[j + i]);
            u[k] = cd * b[i] + pu[k] * order(a[i], how, ou[k]);
        }
    }
    for (; j < len; j++) /* blocks shorter than a line: a one-qubit state */
        turn_pair(t + j, u + (j ^ m), pt[j], pu[j ^ m], ot[j], ou[j ^ m], cd, how);
}

/* The traversal of framesim_clifford for one element order `how`, which
 * the caller passes as a constant so that each order gets a loop of its
 * own.  pat[o][j] and odd[o & 1][j] describe position j of a tile whose
 * offset O(t) (see framesim_clifford) is o. */
static inline __attribute__((always_inline)) void
turn_walk(v2d *amp, int64_t n_amp, int b, uint64_t x, uint64_t z, uint64_t m,
          v2d (*pat)[TILE], v2i (*odd)[TILE], v2d cd, int how)
{
    const int64_t len = (int64_t)1 << b;
    const int64_t n_tiles = n_amp >> b;
    const uint64_t xl = x & (uint64_t)(len - 1), xt = x >> b, zt = z >> b, mt = m >> b;
#define O(t) ((__builtin_popcountll((uint64_t)(t) & mt) \
               + 2 * __builtin_parityll((uint64_t)(t) & zt)) & 3)

    if (x == 0) {
        for (int64_t t = 0; t < n_tiles; t++) {
            v2d *restrict tile = amp + (t << b);
            const int o = O(t);
            const v2d *pt = pat[o];
            const v2i *ot = odd[o & 1];
            int64_t j = 0;
            for (; j + LINE <= len; j += LINE) {
                v2d a[LINE];
                for (int64_t i = 0; i < LINE; i++)
                    a[i] = tile[j + i];
                for (int64_t i = 0; i < LINE; i++)
                    tile[j + i] = cd * a[i] + pt[j + i] * order(a[i], how, ot[j + i]);
            }
            for (; j < len; j++)
                tile[j] = cd * tile[j] + pt[j] * order(tile[j], how, ot[j]);
        }
        return;
    }

    if (xt == 0) {
        /* partners share a tile: as in framesim_rotation_pairs */
        const int q = 63 - __builtin_clzll(xl);
        const int64_t half = (int64_t)1 << q, mx = (int64_t)(xl ^ (uint64_t)half);
        for (int64_t t = 0; t < n_tiles; t++) {
            v2d *tile = amp + (t << b);
            const v2d *next = t + 1 < n_tiles ? tile + len : tile;
            const int o = O(t);
            const v2d *pt = pat[o];
            const v2i *ot = odd[o & 1];
            if (half >= LINE || len < LINE) {
                for (int64_t blk = 0; blk < len; blk += 2 * half)
                    turn_blocks(tile + blk, tile + blk + half, pt + blk,
                                pt + blk + half, ot + blk, ot + blk + half,
                                next + blk, next + blk + half, half, mx, cd, how);
                continue;
            }
            /* x is 1, 2 or 3: two pairs share each cache line */
            const int64_t j1 = half == 1 ? 2 : 1, x1 = j1 ^ (int64_t)xl;
            for (int64_t base = 0; base < len; base += LINE) {
                v2d *r = tile + base;
                const v2d *pr = pt + base;
                const v2i *orr = ot + base;
                prefetch(next + base);
                turn_pair(r, r + xl, pr[0], pr[xl], orr[0], orr[xl], cd, how);
                turn_pair(r + j1, r + x1, pr[j1], pr[x1], orr[j1], orr[x1], cd, how);
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
        const int o = O(t), o2 = O(t2);
        turn_blocks(amp + (t << b), amp + (t2 << b), pat[o], pat[o2], odd[o & 1],
                    odd[o2 & 1], amp + (next << b), amp + ((next ^ (int64_t)xt) << b),
                    len, (int64_t)xl, cd, how);
    }
#undef O
}

/* amp[k] <- c*(d*amp[k] + i**e(k) * (-1)**parity(k & z) * amp[k ^ x])
 *
 * with e(k) = e0 + popcount(k & m): every Pauli operator and every turn of
 * a Pauli rotation by a multiple of pi/2 (m = 0, c = +-1 or +-1/sqrt(2),
 * d = 0 or 1), and, up to an eighth root of unity, any product of
 * single-qubit Cliffords without a Hadamard part (d = 0, c = 1), which
 * maps |k> to a power of i linear in the bits of k times |k ^ x>.  x may
 * be 0, the diagonal case; x, z and m must be below n_amp, a power of two.
 *
 * The traversal is that of framesim_rotation_pairs, over the pairs
 * {k, k ^ x}; as the update of k reads only k and its partner, it needs
 * no pivot.  The factor c * i**e(k) * (-1)**parity(k & z) is c * i**f(k)
 * with f(k) = e0 + popcount(k & m) + 2*parity(k & z) mod 4, which splits
 * into a per-position part and a tile offset O(t) = popcount(t & m_hi) +
 * 2*parity(t & z_hi), m_hi and z_hi being the bits above the tile.  It is
 * applied as an element order (see `order`) and a pattern of signs scaled
 * by c, from a table per offset.  When m is 0 every amplitude has the same
 * order, and the loop makes no choice per position. */
void framesim_clifford(double *amp_, int64_t n_amp, uint64_t x, uint64_t z,
                       double c, double d, int e0, uint64_t m)
{
    v2d *amp = (v2d *)amp_;
    const int b = tile_bits(n_amp);
    const int64_t len = (int64_t)1 << b;
    const uint64_t lo = (uint64_t)len - 1;
    const v2d cd = {c * d, c * d};

    v2d pat[4][TILE];
    v2i odd[2][TILE];
    for (int64_t j = 0; j < len; j++) {
        const int f = e0 + __builtin_popcountll((uint64_t)j & m & lo)
                      + 2 * __builtin_parityll((uint64_t)j & z & lo);
        for (int o = 0; o < 4; o++)
            pat[o][j] = TURN[(f + o) & 3] * c;
        for (int o = 0; o < 2; o++)
            odd[o][j] = (v2i){-(long long)((f + o) & 1), -(long long)((f + o) & 1)};
    }

    if (m)
        turn_walk(amp, n_amp, b, x, z, m, pat, odd, cd, BLEND);
    else if (e0 & 1)
        turn_walk(amp, n_amp, b, x, z, m, pat, odd, cd, SWAP);
    else
        turn_walk(amp, n_amp, b, x, z, m, pat, odd, cd, KEEP);
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
