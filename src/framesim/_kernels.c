/* Single-pass, in-place amplitude loops for framesim's state updates.
 *
 * The state is 2**n complex doubles stored as interleaved (re, im) pairs;
 * bit j of an index is the value of qubit j.
 *
 * The two rotation kernels walk the state
 * in tiles of TILE amplitudes.  A rotation pairs index k with k ^ x: the x
 * bits inside a tile only permute positions within it, the bits above pick
 * the partner tile.  Every tile is therefore read and written once, next to
 * its partner, whatever the weight of the Pauli operator.  Partners are
 * visited out of address order, which the hardware prefetchers do not
 * follow, so each loop prefetches the tiles it will visit next, one cache
 * line per line it updates.  The sign (-1)**parity(k & z) splits the same
 * way as the index, into one sign per tile and a per-position table built
 * once per call.
 *
 * The two gate kernels at the end of the file serve the fixed gates that
 * are not of the form c*I + u*P: the Hadamard gate on one qubit and a
 * masked pair exchange (CX, CZ, SWAP and the flush's qubit relabelings).
 * Both walk contiguous runs of amplitudes in address order and allocate
 * nothing.
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

static inline void prefetch(const cplx *p)
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

/* amp[k0], amp[k1] <- (a0 + a1)/sqrt(2), (a0 - a1)/sqrt(2)
 *
 * for every pair k0, k1 = k0 | 2**q with bit q of k0 clear: the Hadamard
 * gate on qubit q.  The pairs form two runs of 2**q amplitudes per block of
 * 2**(q+1).  H is real, so it scales the real and imaginary parts alike and
 * the loop runs over doubles. */
void framesim_apply_h(double *amp, int64_t n_amp, int q)
{
    const double r = 0.70710678118654752440; /* 1/sqrt(2) */
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

/* For every k with (k & mask) == val, swap amp[k] with amp[k ^ x]; when x
 * is 0, negate amp[k] instead.  val and x must be submasks of mask, so
 * that a partner k ^ x (x nonzero) never matches val itself and each pair
 * is visited once, and mask must be below n_amp, a power of two.
 *
 * The matching indices form runs of len contiguous amplitudes, len being
 * the lowest set bit of mask (the whole state when mask is 0), and x moves
 * a run as a whole.  The run starts with the bits of `fixed` clear are
 * counted in order by adding one with those bits forced set. */
void framesim_pair_exchange(double *amp_, int64_t n_amp, uint64_t mask,
                            uint64_t val, uint64_t x)
{
    cplx *amp = (cplx *)amp_;
    const uint64_t len = mask ? mask & -mask : (uint64_t)n_amp;
    const uint64_t fixed = mask | (len - 1);
    for (uint64_t s = 0; s < (uint64_t)n_amp; s = ((s | fixed) + 1) & ~fixed) {
        cplx *restrict a = amp + (s | val);
        if (x == 0) {
            for (uint64_t j = 0; j < len; j++)
                a[j] = cneg(a[j]);
            continue;
        }
        cplx *restrict b = amp + ((s | val) ^ x);
        for (uint64_t j = 0; j < len; j++) {
            const cplx t = a[j];
            a[j] = b[j];
            b[j] = t;
        }
    }
}
