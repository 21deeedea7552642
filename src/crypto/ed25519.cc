#include "src/crypto/ed25519.h"

#include <cassert>
#include <cstring>

#include "src/crypto/ct.h"
#include "src/crypto/ed25519_kernels.h"
#include "src/crypto/sha2.h"

namespace sdr {

using namespace ed25519_internal;

namespace {

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^255 - 19. Elements are 5 limbs of 51 bits.
// ---------------------------------------------------------------------------

constexpr uint64_t kMask51 = (1ULL << 51) - 1;

Fe FeZero() {
  return Fe{{0, 0, 0, 0, 0}};
}
Fe FeOne() {
  return Fe{{1, 0, 0, 0, 0}};
}

// No carry: inputs <= 2^52 keep the result <= 2^53, safe as fe_mul input.
Fe FeAdd(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) {
    r.v[i] = a.v[i] + b.v[i];
  }
  return r;
}

// a - b, biased by 2p limbwise so limbs never underflow (inputs <= 2^52).
Fe FeSub(const Fe& a, const Fe& b) {
  static constexpr uint64_t kTwoP[5] = {
      0xfffffffffffdaULL, 0xffffffffffffeULL, 0xffffffffffffeULL,
      0xffffffffffffeULL, 0xffffffffffffeULL};
  Fe r;
  for (int i = 0; i < 5; ++i) {
    r.v[i] = a.v[i] + kTwoP[i] - b.v[i];
  }
  return r;
}

// a - b with a 4p bias: safe when b's limbs reach 2^53 (sums of products,
// 2p-biased differences), at the price of limbs up to ~2^54 in the result —
// still fine as multiplication input.
Fe FeSubWide(const Fe& a, const Fe& b) {
  static constexpr uint64_t kFourP[5] = {
      0x1fffffffffffb4ULL, 0x1ffffffffffffcULL, 0x1ffffffffffffcULL,
      0x1ffffffffffffcULL, 0x1ffffffffffffcULL};
  Fe r;
  for (int i = 0; i < 5; ++i) {
    r.v[i] = a.v[i] + kFourP[i] - b.v[i];
  }
  return r;
}

// Carries r so every limb is < 2^52 (not fully canonical; FeToBytes
// freezes).
void FeCarry(Fe& r) {
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 4; ++i) {
      uint64_t c = r.v[i] >> 51;
      r.v[i] &= kMask51;
      r.v[i + 1] += c;
    }
    uint64_t c = r.v[4] >> 51;
    r.v[4] &= kMask51;
    r.v[0] += 19 * c;
  }
}

using u128 = unsigned __int128;

// Shared carry chain for the five 128-bit column sums of a product.
Fe FeCarryProduct(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  uint64_t c;
  r.v[0] = (uint64_t)t0 & kMask51;
  c = (uint64_t)(t0 >> 51);
  t1 += c;
  r.v[1] = (uint64_t)t1 & kMask51;
  c = (uint64_t)(t1 >> 51);
  t2 += c;
  r.v[2] = (uint64_t)t2 & kMask51;
  c = (uint64_t)(t2 >> 51);
  t3 += c;
  r.v[3] = (uint64_t)t3 & kMask51;
  c = (uint64_t)(t3 >> 51);
  t4 += c;
  r.v[4] = (uint64_t)t4 & kMask51;
  c = (uint64_t)(t4 >> 51);
  r.v[0] += 19 * c;
  c = r.v[0] >> 51;
  r.v[0] &= kMask51;
  r.v[1] += c;
  return r;
}

Fe FeMul(const Fe& a, const Fe& b) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  // Terms that wrap past limb 4 are multiplied by 19 (since 2^255 = 19).
  const uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
            (u128)a3 * b2_19 + (u128)a4 * b1_19;
  u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
            (u128)a3 * b3_19 + (u128)a4 * b2_19;
  u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
            (u128)a3 * b4_19 + (u128)a4 * b3_19;
  u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
            (u128)a4 * b4_19;
  u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
            (u128)a4 * b0;
  return FeCarryProduct(t0, t1, t2, t3, t4);
}

// Dedicated squaring: 15 base multiplications instead of 25.
Fe FeSq(const Fe& a) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t a0_2 = a0 * 2, a1_2 = a1 * 2, a2_2 = a2 * 2, a3_2 = a3 * 2;
  const uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;

  u128 t0 = (u128)a0 * a0 + (u128)a1_2 * a4_19 + (u128)a2_2 * a3_19;
  u128 t1 = (u128)a0_2 * a1 + (u128)a2_2 * a4_19 + (u128)a3 * a3_19;
  u128 t2 = (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3_2 * a4_19;
  u128 t3 = (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19;
  u128 t4 = (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2;
  return FeCarryProduct(t0, t1, t2, t3, t4);
}

Fe FeFromBytes(const uint8_t s[32]) {
  auto load = [&s](int byte, int shift_bits, int nbytes) {
    uint64_t v = 0;
    for (int i = 0; i < nbytes; ++i) {
      v |= (uint64_t)s[byte + i] << (8 * i);
    }
    return (v >> shift_bits) & kMask51;
  };
  Fe r;
  r.v[0] = load(0, 0, 8);
  r.v[1] = load(6, 3, 8);
  r.v[2] = load(12, 6, 8);
  r.v[3] = load(19, 1, 8);
  // Limb 4 holds bits 204..254; the 51-bit mask in load() drops bit 255
  // (the sign bit of point encodings), per RFC 8032.
  r.v[4] = load(24, 12, 8);
  return r;
}

// Fully reduces a to [0, p) and packs it into four little-endian words.
void FeFreeze(uint64_t w[4], const Fe& a) {
  Fe t = a;
  FeCarry(t);
  // Freeze: compute t mod p exactly. Add 19, propagate, then drop bit 255
  // and add the wraparound; standard two-pass approach.
  uint64_t q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;  // q = 1 iff t >= p
  t.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    uint64_t c = t.v[i] >> 51;
    t.v[i] &= kMask51;
    t.v[i + 1] += c;
  }
  t.v[4] &= kMask51;  // discard bit 255 (subtracts 2^255, completing -p)

  w[0] = t.v[0] | (t.v[1] << 51);
  w[1] = (t.v[1] >> 13) | (t.v[2] << 38);
  w[2] = (t.v[2] >> 26) | (t.v[3] << 25);
  w[3] = (t.v[3] >> 39) | (t.v[4] << 12);
}

Fe FeSqN(Fe x, int n) {
  for (int i = 0; i < n; ++i) {
    x = FeSq(x);
  }
  return x;
}

// ---- Inversion by safegcd --------------------------------------------------
//
// Bernstein and Yang, "Fast constant-time gcd computation and modular
// inversion" (2019), in the shape of libsecp256k1's modinv64: numbers are 5
// signed 62-bit limbs, and 10 batches of 59 divsteps each (590, enough for
// any 256-bit input) run with fixed iteration counts, every decision taken
// by mask arithmetic. Each batch multiplies a 2x2 transition matrix, scaled
// by 2^62, into (f, g) and into the Bezout coefficients (d, e) mod p.

struct Signed62 {
  int64_t v[5];
};

// The transition matrix of one batch: [u v; q r], scaled by 2^62.
struct Trans2x2 {
  int64_t u, v, q, r;
};

using i128 = __int128;

constexpr uint64_t kMask62 = UINT64_MAX >> 2;
constexpr Signed62 kP62 = {{-19, 0, 0, 0, 128}};  // 2^255 - 19
constexpr uint64_t kPInv62 = 0x39435e50d79435e5ULL;  // p^-1 mod 2^62

// 59 divsteps on the low 64 bits of f and g. zeta = -(delta + 1/2) tracks
// the divstep's delta. Returns the new zeta; t receives the matrix.
int64_t Divsteps59(int64_t zeta /* sdrlint:secret */,
                   uint64_t f0 /* sdrlint:secret */,
                   uint64_t g0 /* sdrlint:secret */, Trans2x2& t) {
  // The matrix starts as the identity times 8, so that after 59 doublings
  // it is scaled by 2^62. Held unsigned so the shifts are defined.
  uint64_t u = 8, v = 0, q = 0, r = 8;
  uint64_t f = f0, g = g0;
  for (int i = 3; i < 62; ++i) {
    // All-ones when zeta < 0 (delta > 0), and when g is odd.
    const uint64_t mask_zeta = (uint64_t)(zeta >> 63);
    const uint64_t mask_odd = 0 - (g & 1);
    // g += ±f (and its row), negated when delta > 0, applied when g odd.
    const uint64_t x = (f ^ mask_zeta) - mask_zeta;
    const uint64_t y = (u ^ mask_zeta) - mask_zeta;
    const uint64_t z = (v ^ mask_zeta) - mask_zeta;
    g += x & mask_odd;
    q += y & mask_odd;
    r += z & mask_odd;
    // When both hold, swap: zeta becomes -zeta - 2 and f takes the old g.
    const uint64_t mask_swap = mask_zeta & mask_odd;
    zeta = (zeta ^ (int64_t)mask_swap) - 1;
    f += g & mask_swap;
    u += q & mask_swap;
    v += r & mask_swap;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t.u = (int64_t)u;
  t.v = (int64_t)v;
  t.q = (int64_t)q;
  t.r = (int64_t)r;
  return zeta;
}

// (d, e) = t * (d, e) / 2^62 mod p. Adds the multiple of p that makes the
// low 62 bits vanish before the shift; inputs and outputs lie in (-2p, p).
void UpdateDe(Signed62& d /* sdrlint:secret */,
              Signed62& e /* sdrlint:secret */, const Trans2x2& t) {
  const int64_t d0 = d.v[0], d1 = d.v[1], d2 = d.v[2], d3 = d.v[3],
                d4 = d.v[4];
  const int64_t e0 = e.v[0], e1 = e.v[1], e2 = e.v[2], e3 = e.v[3],
                e4 = e.v[4];
  const int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  // Start md, me with the (u, q), (v, r) columns of negative inputs, which
  // keeps the outputs in range.
  const int64_t sd = d4 >> 63, se = e4 >> 63;
  int64_t md = (u & sd) + (v & se);
  int64_t me = (q & sd) + (r & se);
  i128 cd = (i128)u * d0 + (i128)v * e0;
  i128 ce = (i128)q * d0 + (i128)r * e0;
  md -= (int64_t)((kPInv62 * (uint64_t)cd + (uint64_t)md) & kMask62);
  me -= (int64_t)((kPInv62 * (uint64_t)ce + (uint64_t)me) & kMask62);
  cd += (i128)kP62.v[0] * md;
  ce += (i128)kP62.v[0] * me;
  cd >>= 62;  // the low 62 bits are now zero
  ce >>= 62;
  // p's limbs 1 to 3 are zero, so only limb 4 adds md and me again.
  cd += (i128)u * d1 + (i128)v * e1;
  ce += (i128)q * d1 + (i128)r * e1;
  d.v[0] = (int64_t)((uint64_t)cd & kMask62);
  e.v[0] = (int64_t)((uint64_t)ce & kMask62);
  cd >>= 62;
  ce >>= 62;
  cd += (i128)u * d2 + (i128)v * e2;
  ce += (i128)q * d2 + (i128)r * e2;
  d.v[1] = (int64_t)((uint64_t)cd & kMask62);
  e.v[1] = (int64_t)((uint64_t)ce & kMask62);
  cd >>= 62;
  ce >>= 62;
  cd += (i128)u * d3 + (i128)v * e3;
  ce += (i128)q * d3 + (i128)r * e3;
  d.v[2] = (int64_t)((uint64_t)cd & kMask62);
  e.v[2] = (int64_t)((uint64_t)ce & kMask62);
  cd >>= 62;
  ce >>= 62;
  cd += (i128)u * d4 + (i128)v * e4 + (i128)kP62.v[4] * md;
  ce += (i128)q * d4 + (i128)r * e4 + (i128)kP62.v[4] * me;
  d.v[3] = (int64_t)((uint64_t)cd & kMask62);
  e.v[3] = (int64_t)((uint64_t)ce & kMask62);
  cd >>= 62;
  ce >>= 62;
  d.v[4] = (int64_t)cd;
  e.v[4] = (int64_t)ce;
}

// (f, g) = t * (f, g) / 2^62, exactly (the low 62 bits are zero by
// construction of t).
void UpdateFg(Signed62& f /* sdrlint:secret */,
              Signed62& g /* sdrlint:secret */, const Trans2x2& t) {
  const int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  i128 cf = (i128)u * f.v[0] + (i128)v * g.v[0];
  i128 cg = (i128)q * f.v[0] + (i128)r * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < 5; ++i) {
    cf += (i128)u * f.v[i] + (i128)v * g.v[i];
    cg += (i128)q * f.v[i] + (i128)r * g.v[i];
    f.v[i - 1] = (int64_t)((uint64_t)cf & kMask62);
    g.v[i - 1] = (int64_t)((uint64_t)cg & kMask62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = (int64_t)cf;
  g.v[4] = (int64_t)cg;
}

// Adds p to r while r < 0, negates it when sign < 0, and carries: takes r
// from (-2p, p) to [0, p).
void Normalize62(Signed62& r /* sdrlint:secret */,
                 int64_t sign /* sdrlint:secret */) {
  const int64_t m62 = (int64_t)kMask62;
  int64_t r0 = r.v[0], r1 = r.v[1], r2 = r.v[2], r3 = r.v[3], r4 = r.v[4];
  int64_t cond_add = r4 >> 63;
  r0 += kP62.v[0] & cond_add;
  r4 += kP62.v[4] & cond_add;
  const int64_t cond_negate = sign >> 63;
  r0 = (r0 ^ cond_negate) - cond_negate;
  r1 = (r1 ^ cond_negate) - cond_negate;
  r2 = (r2 ^ cond_negate) - cond_negate;
  r3 = (r3 ^ cond_negate) - cond_negate;
  r4 = (r4 ^ cond_negate) - cond_negate;
  r1 += r0 >> 62;
  r0 &= m62;
  r2 += r1 >> 62;
  r1 &= m62;
  r3 += r2 >> 62;
  r2 &= m62;
  r4 += r3 >> 62;
  r3 &= m62;
  cond_add = r4 >> 63;
  r0 += kP62.v[0] & cond_add;
  r4 += kP62.v[4] & cond_add;
  r1 += r0 >> 62;
  r0 &= m62;
  r2 += r1 >> 62;
  r1 &= m62;
  r3 += r2 >> 62;
  r2 &= m62;
  r4 += r3 >> 62;
  r3 &= m62;
  r = Signed62{{r0, r1, r2, r3, r4}};
}

}  // namespace

namespace ed25519_internal {

void FeToBytes(uint8_t out[32], const Fe& a) {
  uint64_t w[4];
  FeFreeze(w, a);
  for (int i = 0; i < 32; ++i) {
    out[i] = (uint8_t)(w[i / 8] >> (8 * (i % 8)));
  }
}

Fe FePow(const Fe& base, const uint8_t e[32]) {
  Fe result = FeOne();
  bool started = false;
  for (int bit = 255; bit >= 0; --bit) {
    if (started) {
      result = FeSq(result);
    }
    if ((e[bit / 8] >> (bit % 8)) & 1) {
      result = started ? FeMul(result, base) : base;
      started = true;
    }
  }
  return started ? result : FeOne();
}

Fe FeInvertSafegcd(const Fe& a /* sdrlint:secret */) {
  // g = a in [0, p), f = p, and (d, e) = (0, 1): the invariants d*a = f and
  // e*a = g (mod p, up to the common 2^-62 scalings UpdateDe removes).
  uint64_t w[4];  // sdrlint:secret
  FeFreeze(w, a);
  Signed62 g{{(int64_t)(w[0] & kMask62),
              (int64_t)(((w[0] >> 62) | (w[1] << 2)) & kMask62),
              (int64_t)(((w[1] >> 60) | (w[2] << 4)) & kMask62),
              (int64_t)(((w[2] >> 58) | (w[3] << 6)) & kMask62),
              (int64_t)(w[3] >> 56)}};
  Signed62 f = kP62;
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  int64_t zeta = -1;  // delta = 1/2
  for (int i = 0; i < 10; ++i) {
    Trans2x2 t;
    zeta = Divsteps59(zeta, (uint64_t)f.v[0], (uint64_t)g.v[0], t);
    UpdateDe(d, e, t);
    UpdateFg(f, g, t);
  }
  // Now g = 0 and f = ±gcd(a, p) = ±1 (f = p when a = 0, and d = 0), so d
  // is ±1/a: take f's sign off it.
  Normalize62(d, f.v[4]);
  const uint64_t x0 = (uint64_t)d.v[0] | ((uint64_t)d.v[1] << 62);
  const uint64_t x1 = ((uint64_t)d.v[1] >> 2) | ((uint64_t)d.v[2] << 60);
  const uint64_t x2 = ((uint64_t)d.v[2] >> 4) | ((uint64_t)d.v[3] << 58);
  const uint64_t x3 = ((uint64_t)d.v[3] >> 6) | ((uint64_t)d.v[4] << 56);
  return Fe{{x0 & kMask51, ((x0 >> 51) | (x1 << 13)) & kMask51,
             ((x1 >> 38) | (x2 << 26)) & kMask51,
             ((x2 >> 25) | (x3 << 39)) & kMask51, x3 >> 12}};
}

}  // namespace ed25519_internal

namespace {

bool FeIsNegative(const Fe& a) {
  uint8_t s[32];
  FeToBytes(s, a);
  return (s[0] & 1) != 0;
}

bool FeIsZero(const Fe& a) {
  uint8_t s[32];
  FeToBytes(s, a);
  for (int i = 0; i < 32; ++i) {
    if (s[i] != 0) {
      return false;
    }
  }
  return true;
}

bool FeEqual(const Fe& a, const Fe& b) {
  return FeIsZero(FeSub(a, b));
}

Fe FeNeg(const Fe& a) {
  return FeSub(FeZero(), a);
}

// Lazily derived curve constants.
struct Constants {
  Fe d;        // -121665/121666
  Fe d2;       // 2*d
  Fe sqrtm1;   // sqrt(-1) = 2^((p-1)/4)
};

Fe FeFromU64(uint64_t x) {
  Fe r = FeZero();
  r.v[0] = x & kMask51;
  r.v[1] = x >> 51;
  return r;
}

const Constants& GetConstants() {
  static const Constants c = [] {
    Constants k;
    Fe num = FeNeg(FeFromU64(121665));
    Fe den = FeFromU64(121666);
    k.d = FeMul(num, FeInvertSafegcd(den));
    k.d2 = FeAdd(k.d, k.d);
    FeCarry(k.d2);
    // sqrt(-1) = 2^((p-1)/4), (p-1)/4 = 2^253 - 5.
    uint8_t e[32];
    std::memset(e, 0xff, 32);
    e[0] = 0xfb;
    e[31] = 0x1f;
    k.sqrtm1 = FePow(FeFromU64(2), e);
    return k;
  }();
  return c;
}

// ---------------------------------------------------------------------------
// Point arithmetic: extended coordinates (X, Y, Z, T), x = X/Z, y = Y/Z,
// T = XY/Z on -x^2 + y^2 = 1 + d x^2 y^2.
// ---------------------------------------------------------------------------

// A point prepared for repeated addition: (Y+X, Y-X, Z, 2dT). Saves the
// per-addition recomputation of those sums and the 2d multiply.
struct CachedPoint {
  Fe y_plus_x, y_minus_x, z, t2d;
};

// An affine (Z = 1) precomputed point: (y+x, y-x, 2dxy). The table form of
// the fixed-base and odd-multiple tables; mixed addition against one of
// these is the cheapest addition we have.
struct PrecompPoint {
  Fe y_plus_x, y_minus_x, xy2d;
};

Point PointIdentity() {
  return Point{FeZero(), FeOne(), FeOne(), FeZero()};
}

// Dedicated doubling (dbl-2008-hwcd): 4 squarings + 4 multiplications,
// noticeably cheaper than the unified addition it replaces in scalar-mult
// inner loops.
Point PointDouble(const Point& p) {
  Fe xx = FeSq(p.x);
  Fe yy = FeSq(p.y);
  Fe zz = FeSq(p.z);
  Fe zz2 = FeAdd(zz, zz);
  Fe xy = FeAdd(p.x, p.y);
  Fe a = FeSq(xy);                  // (X+Y)^2
  Fe yy_plus_xx = FeAdd(yy, xx);    // Y'
  Fe yy_minus_xx = FeSub(yy, xx);   // Z'
  Fe xp = FeSubWide(a, yy_plus_xx);         // X' = 2XY
  Fe tp = FeSubWide(zz2, yy_minus_xx);      // T'
  Point r;
  r.x = FeMul(xp, tp);
  r.y = FeMul(yy_plus_xx, yy_minus_xx);
  r.z = FeMul(yy_minus_xx, tp);
  r.t = FeMul(xp, yy_plus_xx);
  return r;
}

// Doubling that skips the extended coordinate T (one multiplication saved).
// Valid whenever the result is consumed only by another doubling or a
// compression — in a sliding-window ladder that is every position
// where no window addition fires, i.e. most of them.
Point PointDoubleP2(const Point& p) {
  Fe xx = FeSq(p.x);
  Fe yy = FeSq(p.y);
  Fe zz = FeSq(p.z);
  Fe zz2 = FeAdd(zz, zz);
  Fe xy = FeAdd(p.x, p.y);
  Fe a = FeSq(xy);
  Fe yy_plus_xx = FeAdd(yy, xx);
  Fe yy_minus_xx = FeSub(yy, xx);
  Fe xp = FeSubWide(a, yy_plus_xx);
  Fe tp = FeSubWide(zz2, yy_minus_xx);
  Point r;
  r.x = FeMul(xp, tp);
  r.y = FeMul(yy_plus_xx, yy_minus_xx);
  r.z = FeMul(yy_minus_xx, tp);
  r.t = FeZero();  // deliberately not 2XY/Z: callers must not read it
  return r;
}

CachedPoint ToCached(const Point& p) {
  const Constants& k = GetConstants();
  CachedPoint c;
  c.y_plus_x = FeAdd(p.y, p.x);
  c.y_minus_x = FeSub(p.y, p.x);
  c.z = p.z;
  c.t2d = FeMul(p.t, k.d2);
  return c;
}

Point AddCached(const Point& p, const CachedPoint& q) {
  Fe a = FeMul(FeSub(p.y, p.x), q.y_minus_x);
  Fe b = FeMul(FeAdd(p.y, p.x), q.y_plus_x);
  Fe c = FeMul(q.t2d, p.t);
  Fe zz = FeMul(p.z, q.z);
  Fe dd = FeAdd(zz, zz);
  Fe e = FeSub(b, a);
  Fe f = FeSub(dd, c);
  Fe g = FeAdd(dd, c);
  Fe h = FeAdd(b, a);
  Point r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

// p - q for a cached q: negating a point swaps (Y+X, Y-X) and negates T,
// which in turn swaps F and G below.
Point SubCached(const Point& p, const CachedPoint& q) {
  Fe a = FeMul(FeSub(p.y, p.x), q.y_plus_x);
  Fe b = FeMul(FeAdd(p.y, p.x), q.y_minus_x);
  Fe c = FeMul(q.t2d, p.t);
  Fe zz = FeMul(p.z, q.z);
  Fe dd = FeAdd(zz, zz);
  Fe e = FeSub(b, a);
  Fe f = FeAdd(dd, c);
  Fe g = FeSub(dd, c);
  Fe h = FeAdd(b, a);
  Point r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

// Mixed addition p + q for an affine precomputed q (Z2 = 1).
Point AddPrecomp(const Point& p, const PrecompPoint& q) {
  Fe a = FeMul(FeSub(p.y, p.x), q.y_minus_x);
  Fe b = FeMul(FeAdd(p.y, p.x), q.y_plus_x);
  Fe c = FeMul(q.xy2d, p.t);
  Fe dd = FeAdd(p.z, p.z);
  Fe e = FeSub(b, a);
  Fe f = FeSub(dd, c);
  Fe g = FeAdd(dd, c);
  Fe h = FeAdd(b, a);
  Point r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

Point SubPrecomp(const Point& p, const PrecompPoint& q) {
  Fe a = FeMul(FeSub(p.y, p.x), q.y_plus_x);
  Fe b = FeMul(FeAdd(p.y, p.x), q.y_minus_x);
  Fe c = FeMul(q.xy2d, p.t);
  Fe dd = FeAdd(p.z, p.z);
  Fe e = FeSub(b, a);
  Fe f = FeAdd(dd, c);
  Fe g = FeSub(dd, c);
  Fe h = FeAdd(b, a);
  Point r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

Point PointNeg(const Point& p) {
  Point r;
  r.x = FeNeg(p.x);
  r.y = p.y;
  r.z = p.z;
  r.t = FeNeg(p.t);
  return r;
}

}  // namespace

namespace ed25519_internal {

// ref10's addition chain: 252 squarings and 11 multiplications, against
// ~500 field operations for the generic FePow. (2^250 - 1) * 2^2 + 1 =
// 2^252 - 3.
Fe FePow2523(const Fe& z) {
  Fe z2 = FeSq(z);
  Fe z9 = FeMul(FeSq(FeSq(z2)), z);
  Fe z11 = FeMul(z9, z2);
  Fe z2_5_0 = FeMul(FeSq(z11), z9);
  Fe z2_10_0 = FeMul(FeSqN(z2_5_0, 5), z2_5_0);
  Fe z2_20_0 = FeMul(FeSqN(z2_10_0, 10), z2_10_0);
  Fe z2_40_0 = FeMul(FeSqN(z2_20_0, 20), z2_20_0);
  Fe z2_50_0 = FeMul(FeSqN(z2_40_0, 10), z2_10_0);
  Fe z2_100_0 = FeMul(FeSqN(z2_50_0, 50), z2_50_0);
  Fe z2_200_0 = FeMul(FeSqN(z2_100_0, 100), z2_100_0);
  Fe z2_250_0 = FeMul(FeSqN(z2_200_0, 50), z2_50_0);
  return FeMul(FeSqN(z2_250_0, 2), z);
}

Point PointAdd(const Point& p, const Point& q) {
  const Constants& k = GetConstants();
  Fe a = FeMul(FeSub(p.y, p.x), FeSub(q.y, q.x));
  Fe b = FeMul(FeAdd(p.y, p.x), FeAdd(q.y, q.x));
  Fe c = FeMul(FeMul(p.t, k.d2), q.t);
  Fe zz = FeMul(p.z, q.z);
  Fe dd = FeAdd(zz, zz);
  Fe e = FeSub(b, a);
  Fe f = FeSub(dd, c);
  Fe g = FeAdd(dd, c);
  Fe h = FeAdd(b, a);
  Point r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

void CompressWithZInv(uint8_t out[32], const Point& p, const Fe& zinv) {
  Fe x = FeMul(p.x, zinv);
  Fe y = FeMul(p.y, zinv);
  FeToBytes(out, y);
  if (FeIsNegative(x)) {
    out[31] |= 0x80;
  }
}

bool PointDecompress(Point& out, const uint8_t in[32]) {
  const Constants& k = GetConstants();
  Fe y = FeFromBytes(in);
  bool x_neg = (in[31] & 0x80) != 0;

  // x^2 = (y^2 - 1) / (d y^2 + 1)
  Fe y2 = FeSq(y);
  Fe u = FeSub(y2, FeOne());
  Fe v = FeAdd(FeMul(k.d, y2), FeOne());
  FeCarry(v);

  // Candidate root: x = u v^3 (u v^7)^((p-5)/8)
  Fe v3 = FeMul(FeSq(v), v);
  Fe v7 = FeMul(FeSq(v3), v);
  Fe x = FeMul(FeMul(u, v3), FePow2523(FeMul(u, v7)));

  Fe vx2 = FeMul(v, FeSq(x));
  if (!FeEqual(vx2, u)) {
    if (FeEqual(vx2, FeNeg(u))) {
      x = FeMul(x, k.sqrtm1);
    } else {
      return false;
    }
  }
  if (FeIsZero(x) && x_neg) {
    return false;  // -0 is not a valid encoding
  }
  if (FeIsNegative(x) != x_neg) {
    x = FeNeg(x);
  }
  out.x = x;
  out.y = y;
  out.z = FeOne();
  out.t = FeMul(x, y);
  return true;
}

const Point& BasePoint() {
  static const Point b = [] {
    // y = 4/5, x recovered with even parity.
    Fe y = FeMul(FeFromU64(4), FeInvertSafegcd(FeFromU64(5)));
    uint8_t enc[32];
    FeToBytes(enc, y);  // sign bit 0 => even x
    Point p;
    bool ok = PointDecompress(p, enc);
    assert(ok);
    (void)ok;
    return p;
  }();
  return b;
}

void ClampScalar(uint8_t a[32]) {
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
}

}  // namespace ed25519_internal

namespace {

void PointCompress(uint8_t out[32], const Point& p) {
  CompressWithZInv(out, p, FeInvertSafegcd(p.z));
}

// True when p is the point r_enc decodes to, without decoding it: compare
// p's canonical encoding with r_enc after reducing r_enc's y mod p and
// keeping its sign bit. Decoding r_enc yields y mod p and the x whose
// parity is the sign bit, and fails when no x exists or the x would be -0
// (x = 0 with the sign bit set). Both failures make the encodings differ,
// as does any other point, so the verdict is exactly decode-then-compare's.
// One inversion replaces decoding's 2^252 - 3 power.
bool EncodesPoint(const Point& p, const uint8_t r_enc[32]) {
  uint8_t want[32];
  FeToBytes(want, FeFromBytes(r_enc));
  want[31] |= r_enc[31] & 0x80;
  uint8_t got[32];
  PointCompress(got, p);
  // sdrlint:public — canonical encodings of a public point and of the
  // signature's R.
  return std::memcmp(got, want, 32) == 0;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493.
// Scalars travel as little-endian byte arrays and are reduced on 64-bit
// words by Barrett reduction.
// ---------------------------------------------------------------------------

struct U256L {
  uint64_t w[4] = {0, 0, 0, 0};
};

constexpr U256L kOrderL{
    {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL}};

// mu = floor(2^512 / L), Barrett's estimate of the reciprocal.
constexpr uint64_t kMuL[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                              0xffffffffffffffebULL, 0xffffffffffffffffULL,
                              0xf};

int CmpL(const U256L& a, const U256L& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] != b.w[i]) {
      return a.w[i] < b.w[i] ? -1 : 1;
    }
  }
  return 0;
}

// Loads n little-endian 64-bit words from 8n bytes.
void LoadWords(uint64_t* w, const uint8_t* in, int n) {
  for (int i = 0; i < n; ++i) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) {
      word = (word << 8) | in[8 * i + b];
    }
    w[i] = word;
  }
}

void StoreWords(uint8_t out[32], const uint64_t w[4]) {
  for (int i = 0; i < 32; ++i) {
    out[i] = (uint8_t)(w[i / 8] >> (8 * (i % 8)));
  }
}

// r -= L when r >= L, chosen by the subtraction's borrow as a mask.
void CondSubL(uint64_t r[4] /* sdrlint:secret */) {
  uint64_t t[4];
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 diff = (u128)r[i] - kOrderL.w[i] - borrow;
    t[i] = (uint64_t)diff;
    borrow = (uint64_t)(diff >> 64) & 1;
  }
  const uint64_t keep = 0 - borrow;  // all-ones when r < L
  for (int i = 0; i < 4; ++i) {
    r[i] = (r[i] & keep) | (t[i] & ~keep);
  }
}

// Writes x mod L, canonically, for x < 2^512 given as eight little-endian
// words.
// Barrett (HAC 14.42, base 2^64, k = 4): q = floor(floor(x / 2^192) * mu /
// 2^320). Then x / L - q < 1 + (2^512 / L - mu) + 2^-60, and 2^512 / L -
// mu is about 0.225, so q falls short of floor(x / L) by at most 1: x - q*L,
// taken mod 2^320, lies in [0, 2L) and one conditional subtraction
// finishes.
void BarrettReduce(uint8_t out[32], const uint64_t x[8] /* sdrlint:secret */) {
  uint64_t qmu[10] = {0};  // floor(x / 2^192) * mu
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 t = (u128)x[3 + i] * kMuL[j] + qmu[i + j] + (uint64_t)carry;
      qmu[i + j] = (uint64_t)t;
      carry = t >> 64;
    }
    qmu[i + 5] = (uint64_t)carry;
  }
  const uint64_t* q = qmu + 5;
  uint64_t ql[5] = {0};  // q * L mod 2^320
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; i + j < 5; ++j) {
      const uint64_t lj = j < 4 ? kOrderL.w[j] : 0;
      const u128 t = (u128)q[i] * lj + ql[i + j] + (uint64_t)carry;
      ql[i + j] = (uint64_t)t;
      carry = t >> 64;
    }
  }
  // r < 2L < 2^254, so its fifth word is zero and four words hold it.
  uint64_t r[4];
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 diff = (u128)x[i] - ql[i] - borrow;
    r[i] = (uint64_t)diff;
    borrow = (uint64_t)(diff >> 64) & 1;
  }
  CondSubL(r);
  StoreWords(out, r);
}

}  // namespace

namespace ed25519_internal {

void ScReduceBytesBarrett(uint8_t out[32],
                          const uint8_t* in /* sdrlint:secret */,
                          size_t len) {
  const size_t n = len < 64 ? len : 64;
  uint8_t padded[64] = {0};  // sdrlint:secret
  for (size_t i = 0; i < n; ++i) {
    padded[i] = in[i];
  }
  uint64_t x[8];  // sdrlint:secret
  LoadWords(x, padded, 8);
  BarrettReduce(out, x);
}

// a*b + c <= (2^256 - 1)^2 + 2^256 - 1 < 2^512: one Barrett reduction.
void ScMulAddBarrett(uint8_t out[32], const uint8_t a[32] /* sdrlint:secret */,
                     const uint8_t b[32] /* sdrlint:secret */,
                     const uint8_t c[32] /* sdrlint:secret */) {
  uint64_t al[4], bl[4], x[8] = {0};  // sdrlint:secret
  LoadWords(al, a, 4);
  LoadWords(bl, b, 4);
  LoadWords(x, c, 4);
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = (u128)al[i] * bl[j] + x[i + j] + (uint64_t)carry;
      x[i + j] = (uint64_t)t;
      carry = t >> 64;
    }
    x[i + 4] = (uint64_t)carry;  // rows before i stop at word i + 3
  }
  BarrettReduce(out, x);
}

}  // namespace ed25519_internal

namespace {

// True when s (little-endian 32 bytes) < L; rejects malleable signatures.
bool ScIsCanonical(const uint8_t s[32]) {
  U256L v;
  LoadWords(v.w, s, 4);
  return CmpL(v, kOrderL) < 0;
}

// ---------------------------------------------------------------------------
// Precomputed tables and fast scalar multiplication.
// ---------------------------------------------------------------------------

// Normalizes points to Z = 1 (canonical limbs) sharing one field inversion
// across the whole vector (Montgomery's trick). Only used at table-build
// time.
void BatchNormalize(std::vector<Point>& pts) {
  const size_t n = pts.size();
  if (n == 0) {
    return;
  }
  std::vector<Fe> prefix(n);
  Fe acc = FeOne();
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    acc = FeMul(acc, pts[i].z);
  }
  Fe inv = FeInvertSafegcd(acc);
  for (size_t i = n; i-- > 0;) {
    Fe zinv = FeMul(inv, prefix[i]);
    inv = FeMul(inv, pts[i].z);
    pts[i].x = FeMul(pts[i].x, zinv);
    pts[i].y = FeMul(pts[i].y, zinv);
    pts[i].z = FeOne();
    pts[i].t = FeMul(pts[i].x, pts[i].y);
  }
}

PrecompPoint ToPrecompAffine(const Point& p) {
  // Requires Z == 1 (post-BatchNormalize).
  const Constants& k = GetConstants();
  PrecompPoint r;
  r.y_plus_x = FeAdd(p.y, p.x);
  FeCarry(r.y_plus_x);
  r.y_minus_x = FeSub(p.y, p.x);
  FeCarry(r.y_minus_x);
  r.xy2d = FeMul(FeMul(p.x, p.y), k.d2);
  return r;
}

// Fills table[i][j] = (j+1) * 16^(2i) * p in affine precomputed form: the
// layout the signed-radix-16 fixed-base multiplications index by digit.
void BuildRadix16Table(PrecompPoint table[32][8], const Point& p) {
  std::vector<Point> pts;
  pts.reserve(32 * 8);
  Point row = p;  // 16^(2i) * p
  for (int i = 0; i < 32; ++i) {
    Point m = row;
    for (int j = 0; j < 8; ++j) {
      pts.push_back(m);
      m = PointAdd(m, row);
    }
    for (int k = 0; k < 8; ++k) {
      row = PointDouble(row);  // advance by 16^2 = 2^8
    }
  }
  BatchNormalize(pts);
  for (size_t n = 0; n < pts.size(); ++n) {
    table[n / 8][n % 8] = ToPrecompAffine(pts[n]);
  }
}

struct BaseTables {
  // table[i][j] = (j+1) * 16^(2i) * B, for the signed-radix-16 fixed-base
  // multiplication used by signing, key derivation and prepared-key
  // verification.
  PrecompPoint table[32][8];
  // odd[j] = (2j+1) * B, for the sliding-window base-point half of the
  // Straus double-scalar multiplication used by verification.
  PrecompPoint odd[8];
};

const BaseTables& GetBaseTables() {
  static const BaseTables t = [] {
    BaseTables bt;
    BuildRadix16Table(bt.table, BasePoint());
    std::vector<Point> odd;
    Point b2 = PointDouble(BasePoint());
    Point o = BasePoint();
    for (int j = 0; j < 8; ++j) {
      odd.push_back(o);
      o = PointAdd(o, b2);
    }
    BatchNormalize(odd);
    for (int j = 0; j < 8; ++j) {
      bt.odd[j] = ToPrecompAffine(odd[j]);
    }
    return bt;
  }();
  return t;
}

// Decomposes a (< 2^253) into 64 signed radix-16 digits in [-8, 8].
// Branch-free: carry propagation is pure shift/mask arithmetic, so secret
// scalars are safe here.
void SignedRadix16(int8_t e[64] /* sdrlint:secret */,
                   const uint8_t a[32] /* sdrlint:secret */) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = a[i] & 15;
    e[2 * i + 1] = (a[i] >> 4) & 15;
  }
  int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = (int8_t)(e[i] + carry);
    carry = (int8_t)((e[i] + 8) >> 4);
    e[i] = (int8_t)(e[i] - (carry << 4));
  }
  e[63] = (int8_t)(e[63] + carry);
}

// Variable-time digit addition: branches on the digit and indexes the table
// with it. Only ever fed *public* scalars (a signature's S and challenge k
// in prepared-key verification); secret scalars go through SelectBaseDigit
// below.
Point AddBaseDigit(const Point& h, const PrecompPoint row[8], int8_t digit) {
  if (digit > 0) {
    return AddPrecomp(h, row[digit - 1]);
  }
  if (digit < 0) {
    return SubPrecomp(h, row[-digit - 1]);
  }
  return h;
}

// ---- Constant-time table selection ----------------------------------------
//
// The radix-16 digits of a signing scalar are secret; loading row[digit]
// directly would put the digit into a cache-line address, which is exactly
// the side channel ct_check exists to rule out. Instead every lookup scans
// the full row and accumulates the wanted entry with arithmetic masks, so
// the memory trace is independent of the digit.

// mask = all-ones when b == 1; b must be 0 or 1.
void FeCMov(Fe& f, const Fe& g, uint8_t b) {
  const uint64_t mask = (uint64_t)0 - (uint64_t)b;
  for (int i = 0; i < 5; ++i) {
    f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
  }
}

void PrecompCMov(PrecompPoint& t, const PrecompPoint& u, uint8_t b) {
  FeCMov(t.y_plus_x, u.y_plus_x, b);
  FeCMov(t.y_minus_x, u.y_minus_x, b);
  FeCMov(t.xy2d, u.xy2d, b);
}

// 1 when a == b, 0 otherwise, without a data-dependent branch.
uint8_t CtByteEqual(uint8_t a, uint8_t b) {
  uint32_t x = (uint32_t)(a ^ b);
  return (uint8_t)((x - 1) >> 31);
}

// Returns digit * (row base point) in precomputed form, digit in [-8, 8],
// as a constant-time full-row select plus conditional negation. digit == 0
// yields the neutral (1, 1, 0), which the unified addition formulas absorb.
PrecompPoint SelectBaseDigit(const PrecompPoint row[8],
                             int8_t digit /* sdrlint:secret */) {
  const uint8_t negative = (uint8_t)((uint8_t)digit >> 7);
  // |digit| via two's-complement identity (x ^ m) - m with m = -negative.
  const int m = -(int)negative;
  const uint8_t babs = (uint8_t)(((int)digit ^ m) - m);
  PrecompPoint t{FeOne(), FeOne(), FeZero()};
  for (uint8_t j = 1; j <= 8; ++j) {
    PrecompCMov(t, row[j - 1], CtByteEqual(babs, j));
  }
  // Negation swaps (Y+X, Y-X) and negates 2dXY.
  PrecompPoint minus_t;
  minus_t.y_plus_x = t.y_minus_x;
  minus_t.y_minus_x = t.y_plus_x;
  minus_t.xy2d = FeNeg(t.xy2d);
  PrecompCMov(t, minus_t, negative);
  return t;
}

// a * B via the precomputed table: 64 table additions + 4 doublings instead
// of a 256-double / ~128-add ladder. Constant time in `a`: digit
// decomposition is pure arithmetic, every table access is a full-row
// select, and zero digits perform a neutral-element addition rather than
// skipping. The resulting *point* (a·B — a public key or a signature's R)
// is public by design, which is the declassification boundary.
Point ScalarMulBaseCt(const uint8_t a[32] /* sdrlint:secret */) {
  const BaseTables& bt = GetBaseTables();
  int8_t e[64];  // sdrlint:secret
  SignedRadix16(e, a);
  // h = sum_{i odd} e[i] 16^(i-1) B, then x16, then + sum_{i even} e[i] 16^i B.
  Point h = PointIdentity();
  for (int i = 1; i < 64; i += 2) {
    h = AddPrecomp(h, SelectBaseDigit(bt.table[i / 2], e[i]));
  }
  h = PointDouble(PointDouble(PointDouble(PointDouble(h))));
  for (int i = 0; i < 64; i += 2) {
    h = AddPrecomp(h, SelectBaseDigit(bt.table[i / 2], e[i]));
  }
  CtDeclassify(&h, sizeof(h));
  return h;
}

// Width-5 sliding-window recoding: odd digits in [-15, 15], at most one
// nonzero digit per 5 consecutive positions.
void Slide(int8_t r[256], const uint8_t a[32]) {
  for (int i = 0; i < 256; ++i) {
    r[i] = (int8_t)(1 & (a[i >> 3] >> (i & 7)));
  }
  for (int i = 0; i < 256; ++i) {
    if (!r[i]) {
      continue;
    }
    for (int b = 1; b <= 6 && i + b < 256; ++b) {
      if (!r[i + b]) {
        continue;
      }
      if (r[i] + (r[i + b] << b) <= 15) {
        r[i] = (int8_t)(r[i] + (r[i + b] << b));
        r[i + b] = 0;
      } else if (r[i] - (r[i + b] << b) >= -15) {
        r[i] = (int8_t)(r[i] - (r[i + b] << b));
        for (int k = i + b; k < 256; ++k) {
          if (!r[k]) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

// Builds the odd multiples {1,3,...,15} * p in cached form.
void OddMultiples(CachedPoint out[8], const Point& p) {
  Point p2 = PointDouble(p);
  Point cur = p;
  for (int i = 0; i < 8; ++i) {
    out[i] = ToCached(cur);
    if (i < 7) {
      cur = PointAdd(p2, cur);
    }
  }
}

// a * A + b * B with one interleaved Straus/Shamir loop: 256 shared
// doublings instead of two independent ladders.
Point DoubleScalarMulBaseVartime(const uint8_t a[32], const Point& big_a,
                                 const uint8_t b[32]) {
  int8_t aslide[256], bslide[256];
  Slide(aslide, a);
  Slide(bslide, b);
  CachedPoint ai[8];
  OddMultiples(ai, big_a);
  const BaseTables& bt = GetBaseTables();

  int i = 255;
  while (i >= 0 && aslide[i] == 0 && bslide[i] == 0) {
    --i;
  }
  Point r = PointIdentity();
  for (; i >= 0; --i) {
    // Only an addition reads r.t, so add-free positions take the cheaper
    // doubling. The final r is only compressed, never added to.
    if (aslide[i] == 0 && bslide[i] == 0) {
      r = PointDoubleP2(r);
      continue;
    }
    r = PointDouble(r);
    if (aslide[i] > 0) {
      r = AddCached(r, ai[aslide[i] / 2]);
    } else if (aslide[i] < 0) {
      r = SubCached(r, ai[(-aslide[i]) / 2]);
    }
    if (bslide[i] > 0) {
      r = AddPrecomp(r, bt.odd[bslide[i] / 2]);
    } else if (bslide[i] < 0) {
      r = SubPrecomp(r, bt.odd[(-bslide[i]) / 2]);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Sign/verify.
// ---------------------------------------------------------------------------

// k = SHA512(R || A || M) mod L.
void ChallengeScalar(uint8_t k[32], const uint8_t r_enc[32], const Bytes& pub,
                     const Bytes& message) {
  Sha512 hk;
  hk.Update(r_enc, 32);
  hk.Update(pub);
  hk.Update(message);
  Bytes k_hash = hk.Final();
  ScReduceBytesBarrett(k, k_hash.data(), k_hash.size());
}

// Seed-to-signature signing. Unlike ExpandKey + SignExpanded, the
// public-key point and the nonce point R share one field inversion for
// their compressions.
Bytes SignSeed(const Bytes& seed, const Bytes& message) {
  Bytes h = Sha512::Hash(seed);
  uint8_t a[32];  // sdrlint:secret
  std::memcpy(a, h.data(), 32);
  ClampScalar(a);
  Point a_point = ScalarMulBaseCt(a);

  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.Update(h.data() + 32, 32);
  hr.Update(message);
  Bytes r_hash = hr.Final();
  uint8_t r[32];  // sdrlint:secret
  ScReduceBytesBarrett(r, r_hash.data(), r_hash.size());
  Point r_point = ScalarMulBaseCt(r);

  Fe inv = FeInvertSafegcd(FeMul(a_point.z, r_point.z));
  Bytes pub(32);
  CompressWithZInv(pub.data(), a_point, FeMul(inv, r_point.z));
  uint8_t r_enc[32];
  CompressWithZInv(r_enc, r_point, FeMul(inv, a_point.z));

  uint8_t k[32];
  ChallengeScalar(k, r_enc, pub, message);
  uint8_t s[32];
  ScMulAddBarrett(s, k, a, r);
  CtDeclassify(s, 32);  // S is published in the signature

  Bytes sig(kEd25519SignatureSize);
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

bool VerifyStraus(const Bytes& public_key, const Bytes& message,
                  const Bytes& signature) {
  const uint8_t* r_enc = signature.data();
  const uint8_t* s = signature.data() + 32;
  Point a_point;
  if (!PointDecompress(a_point, public_key.data())) {
    return false;
  }

  uint8_t k[32];
  ChallengeScalar(k, r_enc, public_key, message);

  // Check [S]B - [k]A == R with one interleaved double-scalar loop.
  Point neg_a = PointNeg(a_point);
  Point p = DoubleScalarMulBaseVartime(k, neg_a, s);
  return EncodesPoint(p, r_enc);
}

}  // namespace

Ed25519ExpandedKey Ed25519ExpandKey(const Bytes& seed) {
  assert(seed.size() == kEd25519SeedSize);
  Bytes h = Sha512::Hash(seed);
  Ed25519ExpandedKey key;
  std::memcpy(key.scalar, h.data(), 32);
  ClampScalar(key.scalar);
  std::memcpy(key.prefix, h.data() + 32, 32);
  Point p = ScalarMulBaseCt(key.scalar);
  key.public_key.resize(32);
  PointCompress(key.public_key.data(), p);
  return key;
}

Bytes Ed25519SignExpanded(const Ed25519ExpandedKey& key, const Bytes& message) {
  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.Update(key.prefix, 32);
  hr.Update(message);
  Bytes r_hash = hr.Final();
  uint8_t r[32];  // sdrlint:secret
  ScReduceBytesBarrett(r, r_hash.data(), r_hash.size());

  Point rp = ScalarMulBaseCt(r);
  uint8_t r_enc[32];
  PointCompress(r_enc, rp);

  uint8_t k[32];
  ChallengeScalar(k, r_enc, key.public_key, message);

  // S = (r + k*a) mod L
  uint8_t s[32];
  ScMulAddBarrett(s, k, key.scalar, r);
  CtDeclassify(s, 32);  // S is published in the signature

  Bytes sig(kEd25519SignatureSize);
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

Bytes Ed25519PublicKey(const Bytes& seed) {
  assert(seed.size() == kEd25519SeedSize);
  return Ed25519ExpandKey(seed).public_key;
}

Bytes Ed25519Sign(const Bytes& seed, const Bytes& message) {
  assert(seed.size() == kEd25519SeedSize);
  return SignSeed(seed, message);
}

bool Ed25519Verify(const Bytes& public_key, const Bytes& message,
                   const Bytes& signature) {
  if (public_key.size() != kEd25519PublicKeySize ||
      signature.size() != kEd25519SignatureSize) {
    return false;
  }
  if (!ScIsCanonical(signature.data() + 32)) {
    return false;
  }
  return VerifyStraus(public_key, message, signature);
}

struct Ed25519PreparedKey {
  Bytes public_key;
  PrecompPoint neg_a[32][8];  // (j+1) * 16^(2i) * (-A), as BaseTables::table
};

std::shared_ptr<const Ed25519PreparedKey> Ed25519PrepareKey(
    const Bytes& public_key) {
  Point a_point;
  if (public_key.size() != kEd25519PublicKeySize ||
      !PointDecompress(a_point, public_key.data())) {
    return nullptr;
  }
  auto key = std::make_shared<Ed25519PreparedKey>();
  key->public_key = public_key;
  BuildRadix16Table(key->neg_a, PointNeg(a_point));
  return key;
}

bool Ed25519VerifyPrepared(const Ed25519PreparedKey& key, const Bytes& message,
                           const Bytes& signature) {
  if (signature.size() != kEd25519SignatureSize ||
      !ScIsCanonical(signature.data() + 32)) {
    return false;
  }
  const uint8_t* r_enc = signature.data();
  uint8_t k[32];
  ChallengeScalar(k, r_enc, key.public_key, message);

  // [S]B + [k](-A) == R, both halves from radix-16 tables: the odd digits,
  // times 16, then the even digits. Every digit is public, so zero digits
  // are skipped and rows indexed directly.
  int8_t s_digits[64], k_digits[64];
  SignedRadix16(s_digits, signature.data() + 32);
  SignedRadix16(k_digits, k);
  const BaseTables& bt = GetBaseTables();
  Point h = PointIdentity();
  for (int i = 1; i < 64; i += 2) {
    h = AddBaseDigit(h, bt.table[i / 2], s_digits[i]);
    h = AddBaseDigit(h, key.neg_a[i / 2], k_digits[i]);
  }
  h = PointDouble(PointDoubleP2(PointDoubleP2(PointDoubleP2(h))));
  for (int i = 0; i < 64; i += 2) {
    h = AddBaseDigit(h, bt.table[i / 2], s_digits[i]);
    h = AddBaseDigit(h, key.neg_a[i / 2], k_digits[i]);
  }
  return EncodesPoint(h, r_enc);
}

}  // namespace sdr
