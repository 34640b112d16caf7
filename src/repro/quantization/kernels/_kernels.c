/* Compiled hot-path kernels for the quantization package.
 *
 * Built at import time by `repro.quantization.kernels._cext` with
 *
 *   cc -O3 -march=native -ffp-contract=off -fno-math-errno
 *      -fno-trapping-math -shared -fPIC
 *
 * Bit-identity with the numpy reference backend is the contract every
 * function here must honour, so the float32 arithmetic mirrors the
 * numpy op sequence exactly:
 *
 *  - `-ffp-contract=off` is mandatory: fusing `acc += v * scale` into
 *    an FMA would skip the intermediate rounding numpy performs.
 *  - Stochastic rounding compares the pre-drawn float64 uniform draw
 *    against the float32 probability promoted to double, exactly as
 *    numpy's `rand < prob` does.  The draws are passed in, never
 *    generated here, so compiled and reference backends consume the
 *    same RNG stream.
 *  - `(int32_t)x` truncation replaces floorf only where the operand is
 *    provably non-negative (sign-variant ratios); the grid variant can
 *    see slightly negative positions under l2 scaling, so it corrects
 *    the truncation to a true floor.  Both forms vectorize where the
 *    libm calls do not.
 *  - l2-norm scale *reduction* is not implemented here on purpose:
 *    numpy's pairwise summation order is part of the reference bit
 *    pattern, so the python wrapper computes l2 scales with numpy and
 *    passes them in.  The infinity norm is order-independent.
 *  - The one exception is 1bitSGD (`repro_onebit_encode`), whose
 *    pos/neg means *are* a float32 row sum.  It reproduces numpy's
 *    `FLOAT_pairwise_sum` exactly: a plain loop for n < 8, eight
 *    accumulators folded ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus a
 *    tail loop for n <= 128, and a recursive split at
 *    n/2 - (n/2) % 8 above that.  The reduction then adds the sum to
 *    the `0.0f` the output starts from, and the mean is
 *    `(float)((double)sum / (double)count)` because numpy divides a
 *    float32 by an int64 in float64.  (For counts below 2^24 that
 *    equals the float32 quotient -- double rounding is harmless for
 *    division at these precisions -- but it is written as numpy does
 *    it.)  Sums that come out zero become +0.0 through the `0.0f +`,
 *    which only shows on a group of -0.0s at least 8 long.
 *    `tests/quantization/test_kernels.py::test_onebit_sums_match_numpy_reduction`
 *    compares these sums with numpy's own `masked.sum(axis=1)`, so a
 *    numpy release that changes its reduction fails there, by name.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Bucket permutation: F-order flatten of a C-contiguous matrix        */
/* ------------------------------------------------------------------ */

#if defined(__AVX__)
#include <immintrin.h>

/* 8x8 float transpose of one register block */
static inline void
transpose_block8(const float *s, int64_t scols, float *d, int64_t dcols)
{
    __m256 x0 = _mm256_loadu_ps(s + 0 * scols);
    __m256 x1 = _mm256_loadu_ps(s + 1 * scols);
    __m256 x2 = _mm256_loadu_ps(s + 2 * scols);
    __m256 x3 = _mm256_loadu_ps(s + 3 * scols);
    __m256 x4 = _mm256_loadu_ps(s + 4 * scols);
    __m256 x5 = _mm256_loadu_ps(s + 5 * scols);
    __m256 x6 = _mm256_loadu_ps(s + 6 * scols);
    __m256 x7 = _mm256_loadu_ps(s + 7 * scols);
    __m256 t0 = _mm256_unpacklo_ps(x0, x1);
    __m256 t1 = _mm256_unpackhi_ps(x0, x1);
    __m256 t2 = _mm256_unpacklo_ps(x2, x3);
    __m256 t3 = _mm256_unpackhi_ps(x2, x3);
    __m256 t4 = _mm256_unpacklo_ps(x4, x5);
    __m256 t5 = _mm256_unpackhi_ps(x4, x5);
    __m256 t6 = _mm256_unpacklo_ps(x6, x7);
    __m256 t7 = _mm256_unpackhi_ps(x6, x7);
    __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
    __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
    __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
    __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
    __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    _mm256_storeu_ps(d + 0 * dcols, _mm256_permute2f128_ps(u0, u4, 0x20));
    _mm256_storeu_ps(d + 1 * dcols, _mm256_permute2f128_ps(u1, u5, 0x20));
    _mm256_storeu_ps(d + 2 * dcols, _mm256_permute2f128_ps(u2, u6, 0x20));
    _mm256_storeu_ps(d + 3 * dcols, _mm256_permute2f128_ps(u3, u7, 0x20));
    _mm256_storeu_ps(d + 4 * dcols, _mm256_permute2f128_ps(u0, u4, 0x31));
    _mm256_storeu_ps(d + 5 * dcols, _mm256_permute2f128_ps(u1, u5, 0x31));
    _mm256_storeu_ps(d + 6 * dcols, _mm256_permute2f128_ps(u2, u6, 0x31));
    _mm256_storeu_ps(d + 7 * dcols, _mm256_permute2f128_ps(u3, u7, 0x31));
}
#endif

/* dst[c * rows + r] = src[r * cols + c]: dst is the (cols, rows)
 * transpose of the C-contiguous (rows, cols) src.  A pure permutation
 * copy, so there is no arithmetic to keep bit-identical.  Tiled so
 * both streams stay cache-resident; the AVX path transposes 8x8
 * register blocks inside each tile. */
void repro_transpose_f32(const float *restrict src, int64_t rows,
                         int64_t cols, float *restrict dst)
{
    const int64_t TILE = 64;
    for (int64_t r0 = 0; r0 < rows; r0 += TILE) {
        int64_t r1 = r0 + TILE < rows ? r0 + TILE : rows;
        for (int64_t c0 = 0; c0 < cols; c0 += TILE) {
            int64_t c1 = c0 + TILE < cols ? c0 + TILE : cols;
            int64_t r = r0, c;
#if defined(__AVX__)
            for (; r + 8 <= r1; r += 8) {
                for (c = c0; c + 8 <= c1; c += 8)
                    transpose_block8(src + r * cols + c, cols,
                                     dst + c * rows + r, rows);
                for (; c < c1; c++)
                    for (int64_t rr = r; rr < r + 8; rr++)
                        dst[c * rows + rr] = src[rr * cols + c];
            }
#endif
            for (; r < r1; r++)
                for (c = c0; c < c1; c++)
                    dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/* ------------------------------------------------------------------ */
/* Per-bucket infinity norm                                            */
/* ------------------------------------------------------------------ */

/* scales[b] = max_j |buckets[b, j]| over contiguous rows.  Max and
 * abs are order-independent, so any vectorization is bit-safe — but
 * gcc will not auto-vectorize a conditional float max reduction, so
 * the AVX path does it by hand: abs is a sign-bit mask (exact) and
 * the lane-wise max commutes with the final horizontal fold.  A NaN
 * in the row makes the scale NaN, as numpy's max does: the bucket then
 * decodes to NaN under every backend instead of hiding the NaN. */
void repro_absmax_rows(const float *restrict buckets, int64_t n_buckets,
                       int64_t bucket_size, float *restrict scales)
{
    for (int64_t b = 0; b < n_buckets; b++) {
        const float *row = buckets + b * bucket_size;
        float m = 0.0f;
        int nan = 0;
        int64_t j = 0;
#if defined(__AVX__)
        if (bucket_size >= 8) {
            const __m256 absmask =
                _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
            __m256 vm = _mm256_setzero_ps();
            __m256 vnan = _mm256_setzero_ps();
            for (; j + 8 <= bucket_size; j += 8) {
                __m256 x = _mm256_and_ps(_mm256_loadu_ps(row + j), absmask);
                vm = _mm256_max_ps(vm, x);
                vnan = _mm256_or_ps(vnan, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
            }
            nan = _mm256_movemask_ps(vnan);
            float lanes[8];
            _mm256_storeu_ps(lanes, vm);
            for (int k = 0; k < 8; k++)
                m = lanes[k] > m ? lanes[k] : m;
        }
#endif
        for (; j < bucket_size; j++) {
            float av = row[j] < 0.0f ? -row[j] : row[j];
            m = av > m ? av : m;
            nan |= av != av;
        }
        scales[b] = nan ? NAN : m;
    }
}

/* ------------------------------------------------------------------ */
/* QSGD stochastic quantization (codes from buckets + scales + draws)  */
/* ------------------------------------------------------------------ */

/* Sign variant: code = (level << 1) | signbit with level the
 * stochastic rounding of clip(|v|/scale, 0, 1) * s.  Mirrors
 * Qsgd._encode_sign op for op; `ratio` stays non-negative so
 * truncation is floor. */
void repro_quant_sign(const float *restrict buckets,
                      const float *restrict scales, int64_t n_buckets,
                      int64_t bucket_size, int64_t bits,
                      const double *restrict rand,
                      uint32_t *restrict codes)
{
    const int32_t s = (1 << (bits - 1)) - 1;
    const float sf = (float)s;
    for (int64_t b = 0; b < n_buckets; b++) {
        const float scale = scales[b];
        const float safe = scale > 0.0f ? scale : 1.0f;
        const float *pb = buckets + b * bucket_size;
        const double *pr = rand + b * bucket_size;
        uint32_t *pc = codes + b * bucket_size;
        if (scale == 0.0f) {
            for (int64_t j = 0; j < bucket_size; j++)
                pc[j] = 0u;
            continue;
        }
        for (int64_t j = 0; j < bucket_size; j++) {
            float v = pb[j];
            float av = v < 0.0f ? -v : v;
            float ratio = av / safe;
            ratio = ratio > 1.0f ? 1.0f : ratio;
            ratio = ratio * sf;
            int32_t low = (int32_t)ratio;
            float prob = ratio - (float)low;
            int32_t level = low + (pr[j] < (double)prob);
            level = level > s ? s : level;
            pc[j] = ((uint32_t)level << 1) | (uint32_t)(v < 0.0f);
        }
    }
}

/* Grid variant: code indexes the 2^bits endpoints of [-scale, scale].
 * `position` can round slightly below zero under l2 scaling, so the
 * truncation is corrected to a true floor before the clip. */
void repro_quant_grid(const float *restrict buckets,
                      const float *restrict scales, int64_t n_buckets,
                      int64_t bucket_size, int64_t bits,
                      const double *restrict rand,
                      uint32_t *restrict codes)
{
    const int32_t top = (1 << bits) - 1;
    const float topf = (float)top;
    for (int64_t b = 0; b < n_buckets; b++) {
        const float scale = scales[b];
        float step = 2.0f * scale;
        step = step / topf;
        const float safe = step > 0.0f ? step : 1.0f;
        const float *pb = buckets + b * bucket_size;
        const double *pr = rand + b * bucket_size;
        uint32_t *pc = codes + b * bucket_size;
        if (scale == 0.0f) {
            for (int64_t j = 0; j < bucket_size; j++)
                pc[j] = 0u;
            continue;
        }
        for (int64_t j = 0; j < bucket_size; j++) {
            float pos = pb[j] + scale;
            pos = pos / safe;
            int32_t low = (int32_t)pos;
            low -= pos < (float)low;
            float prob = pos - (float)low;
            int32_t idx = low + (pr[j] < (double)prob);
            idx = idx < 0 ? 0 : idx;
            idx = idx > top ? top : idx;
            pc[j] = (uint32_t)idx;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Bit packing (little-endian lanes inside uint32 words)               */
/* ------------------------------------------------------------------ */

/* words[w] = OR_l codes[w * per_word + l] << (l * slot).  OR order is
 * irrelevant to the result, matching the numpy lane reduce. */
void repro_pack(const uint32_t *restrict codes, int64_t count,
                int64_t slot, uint32_t *restrict words, int64_t n_words)
{
    const int64_t per_word = 32 / slot;
    const int64_t full = count / per_word;
    for (int64_t w = 0; w < full; w++) {
        const uint32_t *pc = codes + w * per_word;
        uint32_t acc = 0u;
        for (int64_t l = 0; l < per_word; l++)
            acc |= pc[l] << (uint32_t)(l * slot);
        words[w] = acc;
    }
    if (full < n_words) {
        const uint32_t *pc = codes + full * per_word;
        const int64_t tail = count - full * per_word;
        uint32_t acc = 0u;
        for (int64_t l = 0; l < tail; l++)
            acc |= pc[l] << (uint32_t)(l * slot);
        words[full] = acc;
    }
}

/* codes[w * per_word + l] = (words[w] >> (l * slot)) & mask; writes
 * every lane of every word (n_words * per_word codes), exactly like
 * the numpy lane scratch the caller takes a view of. */
void repro_unpack(const uint32_t *restrict words, int64_t n_words,
                  int64_t slot, uint32_t *restrict codes)
{
    const int64_t per_word = 32 / slot;
    const uint32_t mask =
        slot < 32 ? (uint32_t)((1u << slot) - 1u) : 0xFFFFFFFFu;
    for (int64_t l = 0; l < per_word; l++) {
        const uint32_t sh = (uint32_t)(l * slot);
        uint32_t *pc = codes + l;
        for (int64_t w = 0; w < n_words; w++)
            pc[w * per_word] = (words[w] >> sh) & mask;
    }
}

/* ------------------------------------------------------------------ */
/* QSGD decode (+ fused accumulate) in the contiguous bucket layout    */
/* ------------------------------------------------------------------ */

/* Sign variant: v = ((1 - 2 * signbit) * level) / s * scale, the
 * exact numpy op order.  With accumulate the add happens against the
 * caller's running sum, giving BucketSumDecoder its fused
 * decode-accumulate without materializing per-rank tensors. */
#define DEQUANT_SIGN_BODY(STORE)                                       \
    const int32_t s = (1 << (bits - 1)) - 1;                           \
    const float sf = (float)s;                                         \
    for (int64_t b = 0; b < n_buckets; b++) {                          \
        const float scale = scales[b];                                 \
        const uint32_t *pc = codes + b * bucket_size;                  \
        float *po = out + b * bucket_size;                             \
        for (int64_t j = 0; j < bucket_size; j++) {                    \
            uint32_t code = pc[j];                                     \
            float level = (float)(code >> 1);                          \
            float v = 1.0f - 2.0f * (float)(code & 1u);                \
            v = v * level;                                             \
            v = v / sf;                                                \
            v = v * scale;                                             \
            STORE;                                                     \
        }                                                              \
    }

void repro_dequant_sign(const uint32_t *restrict codes,
                        const float *restrict scales, int64_t n_buckets,
                        int64_t bucket_size, int64_t bits,
                        float *restrict out)
{
    DEQUANT_SIGN_BODY(po[j] = v)
}

void repro_dequant_sign_acc(const uint32_t *restrict codes,
                            const float *restrict scales,
                            int64_t n_buckets, int64_t bucket_size,
                            int64_t bits, float *restrict out)
{
    DEQUANT_SIGN_BODY(po[j] += v)
}

/* Grid variant: v = code * step - scale with step = 2 * scale / top;
 * zero-scale buckets decode to exact +0.0 like the numpy zero mask. */
#define DEQUANT_GRID_BODY(STORE_V, STORE_Z)                            \
    const float topf = (float)((1 << bits) - 1);                       \
    for (int64_t b = 0; b < n_buckets; b++) {                          \
        const float scale = scales[b];                                 \
        float step = 2.0f * scale;                                     \
        step = step / topf;                                            \
        const uint32_t *pc = codes + b * bucket_size;                  \
        float *po = out + b * bucket_size;                             \
        if (scale == 0.0f) {                                           \
            for (int64_t j = 0; j < bucket_size; j++) {                \
                STORE_Z;                                               \
            }                                                          \
            continue;                                                  \
        }                                                              \
        for (int64_t j = 0; j < bucket_size; j++) {                    \
            float v = (float)pc[j] * step;                             \
            v = v - scale;                                             \
            STORE_V;                                                   \
        }                                                              \
    }

void repro_dequant_grid(const uint32_t *restrict codes,
                        const float *restrict scales, int64_t n_buckets,
                        int64_t bucket_size, int64_t bits,
                        float *restrict out)
{
    DEQUANT_GRID_BODY(po[j] = v, po[j] = 0.0f)
}

void repro_dequant_grid_acc(const uint32_t *restrict codes,
                            const float *restrict scales,
                            int64_t n_buckets, int64_t bucket_size,
                            int64_t bits, float *restrict out)
{
    DEQUANT_GRID_BODY(po[j] += v, po[j] += 0.0f)
}

/* ------------------------------------------------------------------ */
/* Fused quantize+pack / unpack+dequantize                             */
/* ------------------------------------------------------------------ */

/* The QSGD code plane is wire-intermediate only: the encoder packs it
 * immediately, the decoder unpacks it immediately.  The fused kernels
 * stage codes through a small stack tile that stays in L1 instead of
 * round-tripping the full uint32 plane (4 bytes/element each way)
 * through memory.  The arithmetic is the *same instructions in the
 * same order* as the unfused kernels above — only the staging buffer
 * changes — so the packed words and decoded floats are bit-identical.
 *
 * Callers guarantee `bucket_size % per_word == 0` (true for every
 * tuned bucket size; the python wrappers fall back to the composed
 * kernels otherwise), so each bucket starts on a word boundary.  The
 * tile length is a multiple of every per_word in {1,2,4,8,16,32}. */
#define REPRO_FUSE_TILE 512

#define QUANT_PACK_FRAME(QUANT_STMT)                                   \
    const int64_t per_word = 32 / slot;                                \
    uint32_t tile[REPRO_FUSE_TILE];                                    \
    for (int64_t b = 0; b < n_buckets; b++) {                          \
        const float scale = scales[b];                                 \
        const float *pb = buckets + b * bucket_size;                   \
        const double *pr = rand + b * bucket_size;                     \
        uint32_t *pw = words + (b * bucket_size) / per_word;           \
        if (scale == 0.0f) {                                           \
            /* zero codes pack to zero words */                        \
            for (int64_t w = 0; w < bucket_size / per_word; w++)       \
                pw[w] = 0u;                                            \
            continue;                                                  \
        }                                                              \
        BUCKET_PREP;                                                   \
        for (int64_t j0 = 0; j0 < bucket_size; j0 += REPRO_FUSE_TILE) {\
            const int64_t chunk = bucket_size - j0 < REPRO_FUSE_TILE   \
                                      ? bucket_size - j0               \
                                      : REPRO_FUSE_TILE;               \
            for (int64_t j = 0; j < chunk; j++) {                      \
                QUANT_STMT;                                            \
            }                                                          \
            uint32_t *cw = pw + j0 / per_word;                         \
            for (int64_t w = 0; w < chunk / per_word; w++) {           \
                const uint32_t *pc = tile + w * per_word;              \
                uint32_t acc = 0u;                                     \
                for (int64_t l = 0; l < per_word; l++)                 \
                    acc |= pc[l] << (uint32_t)(l * slot);              \
                cw[w] = acc;                                           \
            }                                                          \
        }                                                              \
    }

void repro_quant_sign_pack(const float *restrict buckets,
                           const float *restrict scales,
                           int64_t n_buckets, int64_t bucket_size,
                           int64_t bits, int64_t slot,
                           const double *restrict rand,
                           uint32_t *restrict words)
{
    const int32_t s = (1 << (bits - 1)) - 1;
    const float sf = (float)s;
#define BUCKET_PREP const float safe = scale > 0.0f ? scale : 1.0f
    QUANT_PACK_FRAME({
        float v = pb[j0 + j];
        float av = v < 0.0f ? -v : v;
        float ratio = av / safe;
        ratio = ratio > 1.0f ? 1.0f : ratio;
        ratio = ratio * sf;
        int32_t low = (int32_t)ratio;
        float prob = ratio - (float)low;
        int32_t level = low + (pr[j0 + j] < (double)prob);
        level = level > s ? s : level;
        tile[j] = ((uint32_t)level << 1) | (uint32_t)(v < 0.0f);
    })
#undef BUCKET_PREP
}

void repro_quant_grid_pack(const float *restrict buckets,
                           const float *restrict scales,
                           int64_t n_buckets, int64_t bucket_size,
                           int64_t bits, int64_t slot,
                           const double *restrict rand,
                           uint32_t *restrict words)
{
    const int32_t top = (1 << bits) - 1;
    const float topf = (float)top;
#define BUCKET_PREP                                                    \
    float step = 2.0f * scale;                                         \
    step = step / topf;                                                \
    const float safe = step > 0.0f ? step : 1.0f
    QUANT_PACK_FRAME({
        float pos = pb[j0 + j] + scale;
        pos = pos / safe;
        int32_t low = (int32_t)pos;
        low -= pos < (float)low;
        float prob = pos - (float)low;
        int32_t idx = low + (pr[j0 + j] < (double)prob);
        idx = idx < 0 ? 0 : idx;
        idx = idx > top ? top : idx;
        tile[j] = (uint32_t)idx;
    })
#undef BUCKET_PREP
}

/* Unpack one word-aligned chunk of a bucket into the tile, exactly
 * like repro_unpack's per-lane passes (the tile is the lane scratch). */
#define UNPACK_CHUNK                                                   \
    do {                                                               \
        const uint32_t *cw = pw + j0 / per_word;                       \
        const int64_t cwords = chunk / per_word;                       \
        for (int64_t l = 0; l < per_word; l++) {                       \
            const uint32_t sh = (uint32_t)(l * slot);                  \
            uint32_t *pc = tile + l;                                   \
            for (int64_t w = 0; w < cwords; w++)                       \
                pc[w * per_word] = (cw[w] >> sh) & mask;               \
        }                                                              \
    } while (0)

#define WORDS_DEQUANT_SIGN_BODY(STORE)                                 \
    const int32_t s = (1 << (bits - 1)) - 1;                           \
    const float sf = (float)s;                                         \
    const int64_t per_word = 32 / slot;                                \
    const uint32_t mask =                                              \
        slot < 32 ? (uint32_t)((1u << slot) - 1u) : 0xFFFFFFFFu;       \
    uint32_t tile[REPRO_FUSE_TILE];                                    \
    for (int64_t b = 0; b < n_buckets; b++) {                          \
        const float scale = scales[b];                                 \
        const uint32_t *pw = words + (b * bucket_size) / per_word;     \
        float *po = out + b * bucket_size;                             \
        for (int64_t j0 = 0; j0 < bucket_size; j0 += REPRO_FUSE_TILE) {\
            const int64_t chunk = bucket_size - j0 < REPRO_FUSE_TILE   \
                                      ? bucket_size - j0               \
                                      : REPRO_FUSE_TILE;               \
            UNPACK_CHUNK;                                              \
            for (int64_t j = 0; j < chunk; j++) {                      \
                uint32_t code = tile[j];                               \
                float level = (float)(code >> 1);                      \
                float v = 1.0f - 2.0f * (float)(code & 1u);            \
                v = v * level;                                         \
                v = v / sf;                                            \
                v = v * scale;                                         \
                STORE;                                                 \
            }                                                          \
        }                                                              \
    }

void repro_words_dequant_sign(const uint32_t *restrict words,
                              const float *restrict scales,
                              int64_t n_buckets, int64_t bucket_size,
                              int64_t bits, int64_t slot,
                              float *restrict out)
{
    WORDS_DEQUANT_SIGN_BODY(po[j0 + j] = v)
}

void repro_words_dequant_sign_acc(const uint32_t *restrict words,
                                  const float *restrict scales,
                                  int64_t n_buckets, int64_t bucket_size,
                                  int64_t bits, int64_t slot,
                                  float *restrict out)
{
    WORDS_DEQUANT_SIGN_BODY(po[j0 + j] += v)
}

/* Grid variant: zero-scale buckets skip the unpack entirely — the
 * reference zero mask overwrites whatever the codes decode to. */
#define WORDS_DEQUANT_GRID_BODY(STORE_V, STORE_Z)                      \
    const float topf = (float)((1 << bits) - 1);                       \
    const int64_t per_word = 32 / slot;                                \
    const uint32_t mask =                                              \
        slot < 32 ? (uint32_t)((1u << slot) - 1u) : 0xFFFFFFFFu;       \
    uint32_t tile[REPRO_FUSE_TILE];                                    \
    for (int64_t b = 0; b < n_buckets; b++) {                          \
        const float scale = scales[b];                                 \
        float step = 2.0f * scale;                                     \
        step = step / topf;                                            \
        const uint32_t *pw = words + (b * bucket_size) / per_word;     \
        float *po = out + b * bucket_size;                             \
        if (scale == 0.0f) {                                           \
            for (int64_t j = 0; j < bucket_size; j++) {                \
                STORE_Z;                                               \
            }                                                          \
            continue;                                                  \
        }                                                              \
        for (int64_t j0 = 0; j0 < bucket_size; j0 += REPRO_FUSE_TILE) {\
            const int64_t chunk = bucket_size - j0 < REPRO_FUSE_TILE   \
                                      ? bucket_size - j0               \
                                      : REPRO_FUSE_TILE;               \
            UNPACK_CHUNK;                                              \
            for (int64_t j = 0; j < chunk; j++) {                      \
                float v = (float)tile[j] * step;                       \
                v = v - scale;                                         \
                STORE_V;                                               \
            }                                                          \
        }                                                              \
    }

void repro_words_dequant_grid(const uint32_t *restrict words,
                              const float *restrict scales,
                              int64_t n_buckets, int64_t bucket_size,
                              int64_t bits, int64_t slot,
                              float *restrict out)
{
    WORDS_DEQUANT_GRID_BODY(po[j0 + j] = v, po[j] = 0.0f)
}

void repro_words_dequant_grid_acc(const uint32_t *restrict words,
                                  const float *restrict scales,
                                  int64_t n_buckets, int64_t bucket_size,
                                  int64_t bits, int64_t slot,
                                  float *restrict out)
{
    WORDS_DEQUANT_GRID_BODY(po[j0 + j] += v, po[j] += 0.0f)
}

/* ------------------------------------------------------------------ */
/* 1bitSGD: sign words + pos/neg means, and decode(-accumulate)        */
/* ------------------------------------------------------------------ */

/* Groups are read and written through a group stride and an element
 * stride (in floats), so the column-wise layout -- a matrix column
 * range viewed as `matrix[:, lo:hi].T` -- is handled in place.  When
 * the elements of a group are strided, ONEBIT_TILE groups at a time
 * are staged (encode) or written (decode) row by row, so each row of
 * the matrix is touched as one run of ONEBIT_TILE adjacent floats. */
#define ONEBIT_TILE 16

/* `v` where `keep`, else +0.0f: a bit mask, so no branch on the sign */
static inline float onebit_keep(float v, int keep)
{
    uint32_t u;
    memcpy(&u, &v, sizeof u);
    u &= 0u - (uint32_t)keep;
    memcpy(&v, &u, sizeof v);
    return v;
}

/* Both masked sums of numpy's reference at once: the positive side
 * sums `v >= 0 ? v : +0`, the negative side `v >= 0 ? +0 : v` (NaN
 * compares false, so it lands on the negative side), each in
 * FLOAT_pairwise_sum's order -- see the header comment.  The AVX path
 * holds the eight accumulators in one register; lane k performs
 * exactly the adds of r[k]. */
static void onebit_pairwise(const float *restrict a, int64_t n,
                            float *sum_pos, float *sum_neg)
{
    if (n < 8) {
        float rp = 0.0f, rn = 0.0f;
        for (int64_t i = 0; i < n; i++) {
            const int pos = a[i] >= 0.0f;
            rp += onebit_keep(a[i], pos);
            rn += onebit_keep(a[i], !pos);
        }
        *sum_pos = rp;
        *sum_neg = rn;
    }
    else if (n <= 128) {
        float p[8], q[8];
        int64_t i;
#if defined(__AVX__)
        const __m256 zero = _mm256_setzero_ps();
        __m256 v = _mm256_loadu_ps(a);
        __m256 m = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
        __m256 vp = _mm256_and_ps(m, v);
        __m256 vq = _mm256_andnot_ps(m, v);
        for (i = 8; i < n - (n % 8); i += 8) {
            v = _mm256_loadu_ps(a + i);
            m = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
            vp = _mm256_add_ps(vp, _mm256_and_ps(m, v));
            vq = _mm256_add_ps(vq, _mm256_andnot_ps(m, v));
        }
        _mm256_storeu_ps(p, vp);
        _mm256_storeu_ps(q, vq);
#else
        for (int k = 0; k < 8; k++) {
            const int pos = a[k] >= 0.0f;
            p[k] = onebit_keep(a[k], pos);
            q[k] = onebit_keep(a[k], !pos);
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int k = 0; k < 8; k++) {
                const int pos = a[i + k] >= 0.0f;
                p[k] += onebit_keep(a[i + k], pos);
                q[k] += onebit_keep(a[i + k], !pos);
            }
        }
#endif
        float rp = ((p[0] + p[1]) + (p[2] + p[3])) +
                   ((p[4] + p[5]) + (p[6] + p[7]));
        float rn = ((q[0] + q[1]) + (q[2] + q[3])) +
                   ((q[4] + q[5]) + (q[6] + q[7]));
        for (; i < n; i++) {
            const int pos = a[i] >= 0.0f;
            rp += onebit_keep(a[i], pos);
            rn += onebit_keep(a[i], !pos);
        }
        *sum_pos = rp;
        *sum_neg = rn;
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        float lp, ln, hp, hn;
        onebit_pairwise(a, n2, &lp, &ln);
        onebit_pairwise(a + n2, n - n2, &hp, &hn);
        *sum_pos = lp + hp;
        *sum_neg = ln + hn;
    }
}

/* One group: sign words (bit set for v >= 0, zero past group_len)
 * into `pw`, then the means over the first `nvalid` elements.  Bucket
 * padding (elements from `nvalid` on) keeps its sign bit but counts on
 * neither side; its masked value is the reference's +0, which the sum
 * reads from `scratch` (`row` itself when the group was staged). */
static void onebit_encode_group(const float *row, int64_t group_len,
                                int64_t nvalid, float *scratch,
                                uint32_t *restrict pw, float *avg_pos,
                                float *avg_neg)
{
    for (int64_t j0 = 0; j0 < group_len; j0 += 32) {
        const int64_t len = group_len - j0 < 32 ? group_len - j0 : 32;
        uint32_t acc = 0u;
        for (int64_t l = 0; l < len; l++)
            acc |= (uint32_t)(row[j0 + l] >= 0.0f) << l;
        pw[j0 / 32] = acc;
    }
    int64_t count_pos = 0;
    for (int64_t j = 0; j < nvalid; j++)
        count_pos += row[j] >= 0.0f;
    const int64_t count_neg = nvalid - count_pos;
    if (nvalid < group_len) {
        if (row != scratch)
            memcpy(scratch, row, (size_t)nvalid * sizeof(float));
        for (int64_t j = nvalid; j < group_len; j++)
            scratch[j] = 0.0f;
        row = scratch;
    }
    float sp, sn;
    onebit_pairwise(row, group_len, &sp, &sn);
    sp = 0.0f + sp;
    sn = 0.0f + sn;
    *avg_pos = count_pos ? (float)((double)sp / (double)count_pos) : 0.0f;
    *avg_neg = count_neg ? (float)((double)sn / (double)count_neg) : 0.0f;
}

/* avg_pos / avg_neg / sign words of `n_groups` groups of `group_len`
 * floats, element (g, j) at groups[g * gstride + j * estride]; only
 * the first `valid_count` elements in (g, j) row-major order count
 * towards the means.  Returns -1 if the tile cannot be allocated. */
int repro_onebit_encode(const float *restrict groups, int64_t n_groups,
                        int64_t group_len, int64_t gstride, int64_t estride,
                        int64_t valid_count, float *restrict avg_pos,
                        float *restrict avg_neg, uint32_t *restrict words)
{
    const int64_t wpg = (group_len + 31) / 32;
    const int staged = estride != 1;
    float *tile = malloc(
        (size_t)(staged ? ONEBIT_TILE : 1) * (size_t)group_len * sizeof(float)
        + sizeof(float));
    if (tile == NULL)
        return -1;
    for (int64_t g0 = 0; g0 < n_groups; g0 += ONEBIT_TILE) {
        const int64_t kn =
            n_groups - g0 < ONEBIT_TILE ? n_groups - g0 : ONEBIT_TILE;
        const float *src = groups + g0 * gstride;
        if (staged)
            for (int64_t j = 0; j < group_len; j++)
                for (int64_t k = 0; k < kn; k++)
                    tile[k * group_len + j] = src[k * gstride + j * estride];
        for (int64_t k = 0; k < kn; k++) {
            const int64_t g = g0 + k;
            int64_t nvalid = valid_count - g * group_len;
            nvalid = nvalid < 0 ? 0 : nvalid > group_len ? group_len : nvalid;
            float *row = staged ? tile + k * group_len : tile;
            onebit_encode_group(staged ? row : src + k * gstride, group_len,
                                nvalid, row, words + g * wpg, avg_pos + g,
                                avg_neg + g);
        }
    }
    free(tile);
    return 0;
}

/* out[g * gstride + j * estride] (=|+=) bit(g, j) ? avg_pos[g] :
 * avg_neg[g] -- a selection, so the set form stores the reference's
 * floats as they are and the accumulate form is one float32 add.
 * Groups with strided elements are written ONEBIT_TILE at a time, row
 * by row, each of a group's sign words serving 32 rows. */
#define ONEBIT_DECODE_BODY(STORE)                                      \
    const int64_t wpg = (group_len + 31) / 32;                         \
    if (estride == 1) {                                                \
        for (int64_t g = 0; g < n_groups; g++) {                       \
            const float ap = avg_pos[g], an = avg_neg[g];              \
            const uint32_t *pw = words + g * wpg;                      \
            float *po = out + g * gstride;                             \
            for (int64_t j = 0; j < group_len; j++) {                  \
                const float v = (pw[j >> 5] >> (j & 31)) & 1u ? ap : an; \
                STORE(po[j]);                                          \
            }                                                          \
        }                                                              \
        return;                                                        \
    }                                                                  \
    for (int64_t g0 = 0; g0 < n_groups; g0 += ONEBIT_TILE) {           \
        const int64_t kn =                                             \
            n_groups - g0 < ONEBIT_TILE ? n_groups - g0 : ONEBIT_TILE; \
        float ap[ONEBIT_TILE], an[ONEBIT_TILE];                        \
        uint32_t cur[ONEBIT_TILE];                                     \
        for (int64_t k = 0; k < kn; k++) {                             \
            ap[k] = avg_pos[g0 + k];                                   \
            an[k] = avg_neg[g0 + k];                                   \
        }                                                              \
        float *base = out + g0 * gstride;                              \
        for (int64_t j = 0; j < group_len; j++) {                      \
            const uint32_t sh = (uint32_t)(j & 31);                    \
            if (sh == 0)                                               \
                for (int64_t k = 0; k < kn; k++)                       \
                    cur[k] = words[(g0 + k) * wpg + (j >> 5)];         \
            float *po = base + j * estride;                            \
            for (int64_t k = 0; k < kn; k++) {                         \
                const float v = (cur[k] >> sh) & 1u ? ap[k] : an[k];   \
                STORE(po[k * gstride]);                                \
            }                                                          \
        }                                                              \
    }

#define ONEBIT_SET(x) x = v
#define ONEBIT_ADD(x) x += v

void repro_onebit_decode(const float *restrict avg_pos,
                         const float *restrict avg_neg,
                         const uint32_t *restrict words, int64_t n_groups,
                         int64_t group_len, float *restrict out,
                         int64_t gstride, int64_t estride)
{
    ONEBIT_DECODE_BODY(ONEBIT_SET)
}

void repro_onebit_decode_acc(const float *restrict avg_pos,
                             const float *restrict avg_neg,
                             const uint32_t *restrict words,
                             int64_t n_groups, int64_t group_len,
                             float *restrict out, int64_t gstride,
                             int64_t estride)
{
    ONEBIT_DECODE_BODY(ONEBIT_ADD)
}
