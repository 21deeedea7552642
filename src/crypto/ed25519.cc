#include "src/crypto/ed25519.h"

#include <cassert>
#include <cstring>

#include "src/crypto/ct.h"
#include "src/crypto/sha2.h"

namespace sdr {

namespace {

bool g_fast_path = true;

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^255 - 19. Elements are 5 limbs of 51 bits.
// ---------------------------------------------------------------------------

struct Fe {
  uint64_t v[5];
};

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

// Fully reduces to [0, p) and serializes little-endian.
void FeToBytes(uint8_t out[32], const Fe& a) {
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

  // Pack the 5x51-bit limbs into four little-endian words.
  uint64_t w[4];
  w[0] = t.v[0] | (t.v[1] << 51);
  w[1] = (t.v[1] >> 13) | (t.v[2] << 38);
  w[2] = (t.v[2] >> 26) | (t.v[3] << 25);
  w[3] = (t.v[3] >> 39) | (t.v[4] << 12);
  for (int i = 0; i < 32; ++i) {
    out[i] = (uint8_t)(w[i / 8] >> (8 * (i % 8)));
  }
}

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

// base^e where e is given as 32 little-endian bytes.
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

Fe FeSqN(Fe x, int n) {
  for (int i = 0; i < n; ++i) {
    x = FeSq(x);
  }
  return x;
}

// Shared addition-chain ladder (ref10): computes z^(2^250 - 1) and z^11,
// from which both exponents below are two steps away. 252 squarings and 11
// multiplications, against ~500 field operations for the generic FePow.
void FePowLadder(const Fe& z, Fe& z2_250_0, Fe& z11) {
  Fe z2 = FeSq(z);
  Fe z9 = FeMul(FeSq(FeSq(z2)), z);
  z11 = FeMul(z9, z2);
  Fe z2_5_0 = FeMul(FeSq(z11), z9);
  Fe z2_10_0 = FeMul(FeSqN(z2_5_0, 5), z2_5_0);
  Fe z2_20_0 = FeMul(FeSqN(z2_10_0, 10), z2_10_0);
  Fe z2_40_0 = FeMul(FeSqN(z2_20_0, 20), z2_20_0);
  Fe z2_50_0 = FeMul(FeSqN(z2_40_0, 10), z2_10_0);
  Fe z2_100_0 = FeMul(FeSqN(z2_50_0, 50), z2_50_0);
  Fe z2_200_0 = FeMul(FeSqN(z2_100_0, 100), z2_100_0);
  z2_250_0 = FeMul(FeSqN(z2_200_0, 50), z2_50_0);
}

// a^(p-2) = a^(2^255 - 21): (2^250 - 1) * 2^5 + 11 = 2^255 - 21.
//
// The naive path keeps the original generic square-and-multiply so it stays
// a faithful cost (and correctness) baseline for the addition chain.
Fe FeInvert(const Fe& a) {
  if (!g_fast_path) {
    static const uint8_t kPrimeMinus2[32] = {
        0xeb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
    return FePow(a, kPrimeMinus2);
  }
  Fe z2_250_0, z11;
  FePowLadder(a, z2_250_0, z11);
  return FeMul(FeSqN(z2_250_0, 5), z11);
}

// a^((p-5)/8) = a^(2^252 - 3): (2^250 - 1) * 2^2 + 1 = 2^252 - 3.
Fe FePow2523(const Fe& a) {
  if (!g_fast_path) {
    static const uint8_t kP58[32] = {
        0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f};
    return FePow(a, kP58);
  }
  Fe z2_250_0, z11;
  FePowLadder(a, z2_250_0, z11);
  return FeMul(FeSqN(z2_250_0, 2), a);
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
    k.d = FeMul(num, FeInvert(den));
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

struct Point {
  Fe x, y, z, t;
};

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

// Unified addition (add-2008-hwcd-3); also correct for doubling.
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
// projective comparison — in a sliding-window ladder that is every position
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

// scalar given as 32 little-endian bytes; plain double-and-add. This is the
// naive reference ladder, kept as the cross-checking oracle for the
// precomputed fast path. NOT constant-time: it branches on scalar bits, so
// it must never see a secret outside the naive reference configuration.
Point PointScalarMul(const Point& p, const uint8_t scalar[32] /* sdrlint:secret */) {
  Point r = PointIdentity();
  for (int bit = 255; bit >= 0; --bit) {
    r = PointAdd(r, r);
    // sdrlint:allow(R5) naive reference ladder, non-constant-time by design
    if ((scalar[bit / 8] >> (bit % 8)) & 1) {
      r = PointAdd(r, p);
    }
  }
  return r;
}

void PointCompress(uint8_t out[32], const Point& p) {
  Fe zinv = FeInvert(p.z);
  Fe x = FeMul(p.x, zinv);
  Fe y = FeMul(p.y, zinv);
  FeToBytes(out, y);
  if (FeIsNegative(x)) {
    out[31] |= 0x80;
  }
}

// Compression with an externally supplied 1/Z, for sharing one field
// inversion across several compressions.
void CompressWithZInv(uint8_t out[32], const Point& p, const Fe& zinv) {
  Fe x = FeMul(p.x, zinv);
  Fe y = FeMul(p.y, zinv);
  FeToBytes(out, y);
  if (FeIsNegative(x)) {
    out[31] |= 0x80;
  }
}

// True when p and q are the same curve point. The projective cross-check
// X1 Z2 == X2 Z1, Y1 Z2 == Y2 Z1 costs four multiplications instead of the
// inversion a compress-and-compare would need; for valid points it is
// equivalent to comparing canonical encodings.
bool PointsEqual(const Point& p, const Point& q) {
  return FeEqual(FeMul(p.x, q.z), FeMul(q.x, p.z)) &&
         FeEqual(FeMul(p.y, q.z), FeMul(q.y, p.z));
}

// Decompresses a point; returns false for invalid encodings.
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
    Fe y = FeMul(FeFromU64(4), FeInvert(FeFromU64(5)));
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

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493.
// Scalars are handled as little-endian byte arrays. The fast path reduces
// with byte-limb folding (2^256 = -16c mod L); the naive path keeps the
// original binary long division as a reference.
// ---------------------------------------------------------------------------

// L, little-endian.
constexpr uint8_t kLBytes[32] = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
    0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};

struct U256L {
  uint64_t w[4] = {0, 0, 0, 0};
};

const U256L& OrderL() {
  static const U256L l = [] {
    U256L v;
    for (int i = 0; i < 32; ++i) {
      v.w[i / 8] |= (uint64_t)kLBytes[i] << (8 * (i % 8));
    }
    return v;
  }();
  return l;
}

int CmpL(const U256L& a, const U256L& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] != b.w[i]) {
      return a.w[i] < b.w[i] ? -1 : 1;
    }
  }
  return 0;
}

void SubL(U256L& a, const U256L& b) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 d =
        (unsigned __int128)a.w[i] - b.w[i] - (uint64_t)borrow;
    a.w[i] = (uint64_t)d;
    borrow = (d >> 64) & 1;
  }
}

// Naive reduction of a little-endian byte string (up to 64 bytes) mod L:
// binary long division over a 4-limb accumulator.
void ScReduceBytesNaive(uint8_t out[32], const uint8_t* in, size_t len) {
  const U256L& l = OrderL();
  U256L r;
  for (size_t i = len; i-- > 0;) {
    for (int bit = 7; bit >= 0; --bit) {
      // r = r*2 + bit, then conditional subtract.
      uint64_t carry = 0;
      for (int w = 0; w < 4; ++w) {
        uint64_t next_carry = r.w[w] >> 63;
        r.w[w] = (r.w[w] << 1) | carry;
        carry = next_carry;
      }
      r.w[0] |= (in[i] >> bit) & 1;
      // After one doubling of a value < L (< 2^253), r < 2^254: no limb
      // overflow, and at most one subtraction restores r < L.
      if (carry != 0 || CmpL(r, l) >= 0) {
        SubL(r, l);
      }
    }
  }
  std::memset(out, 0, 32);
  for (int i = 0; i < 32; ++i) {
    out[i] = (uint8_t)(r.w[i / 8] >> (8 * (i % 8)));
  }
}

// Fast reduction mod L over 64 signed byte-limbs (limbs may hold partial
// products far above 255). Folds the top half with 2^256 = -16c (mod L),
// c = L - 2^252, then squeezes the remaining high nibble of limb 31 and
// fixes up the final borrow. Output is canonical ([0, L)).
void ReduceModL(uint8_t out[32], int64_t x[64]) {
  for (int i = 63; i >= 32; --i) {
    int64_t carry = 0;
    const int64_t xi = x[i];
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * xi * (int64_t)kLBytes[j - (i - 32)];
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  int64_t carry = 0;
  for (int j = 0; j < 32; ++j) {
    // Note: x[31] is re-read each iteration; the j == 31 step folds its own
    // high nibble via L's top byte (0x10).
    x[j] += carry - (x[31] >> 4) * (int64_t)kLBytes[j];
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) {
    x[j] -= carry * (int64_t)kLBytes[j];
  }
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    out[i] = (uint8_t)(x[i] & 255);
  }
}

// Reduces a little-endian byte string (up to 64 bytes) mod L.
void ScReduceBytes(uint8_t out[32], const uint8_t* in, size_t len) {
  if (g_fast_path) {
    int64_t x[64] = {0};
    for (size_t i = 0; i < len && i < 64; ++i) {
      x[i] = in[i];
    }
    ReduceModL(out, x);
    return;
  }
  ScReduceBytesNaive(out, in, len);
}

// out = (a*b + c) mod L; a, b, c are 32-byte little-endian scalars (a and b
// need not be reduced).
void ScMulAdd(uint8_t out[32], const uint8_t a[32], const uint8_t b[32],
              const uint8_t c[32]) {
  if (g_fast_path) {
    int64_t x[64] = {0};
    for (int i = 0; i < 32; ++i) {
      x[i] = c[i];
    }
    for (int i = 0; i < 32; ++i) {
      for (int j = 0; j < 32; ++j) {
        x[i + j] += (int64_t)a[i] * (int64_t)b[j];
      }
    }
    ReduceModL(out, x);
    return;
  }
  // Naive: 64-bit limb schoolbook product, then binary reduction.
  uint64_t al[4] = {0}, bl[4] = {0};
  for (int i = 0; i < 32; ++i) {
    al[i / 8] |= (uint64_t)a[i] << (8 * (i % 8));
    bl[i / 8] |= (uint64_t)b[i] << (8 * (i % 8));
  }
  uint64_t prod[8] = {0};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          (unsigned __int128)al[i] * bl[j] + prod[i + j] + (uint64_t)carry;
      prod[i + j] = (uint64_t)cur;
      carry = cur >> 64;
    }
    prod[i + 4] += (uint64_t)carry;
  }
  // Add c (256-bit) into the 512-bit product.
  unsigned __int128 carry = 0;
  uint64_t cl[4] = {0};
  for (int i = 0; i < 32; ++i) {
    cl[i / 8] |= (uint64_t)c[i] << (8 * (i % 8));
  }
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 cur = (unsigned __int128)prod[i] + cl[i] + (uint64_t)carry;
    prod[i] = (uint64_t)cur;
    carry = cur >> 64;
  }
  for (int i = 4; i < 8 && carry != 0; ++i) {
    unsigned __int128 cur = (unsigned __int128)prod[i] + (uint64_t)carry;
    prod[i] = (uint64_t)cur;
    carry = cur >> 64;
  }
  uint8_t prod_bytes[64];
  for (int i = 0; i < 64; ++i) {
    prod_bytes[i] = (uint8_t)(prod[i / 8] >> (8 * (i % 8)));
  }
  ScReduceBytesNaive(out, prod_bytes, 64);
}

// True when s (little-endian 32 bytes) < L; rejects malleable signatures.
bool ScIsCanonical(const uint8_t s[32]) {
  U256L v;
  for (int i = 0; i < 32; ++i) {
    v.w[i / 8] |= (uint64_t)s[i] << (8 * (i % 8));
  }
  return CmpL(v, OrderL()) < 0;
}

void ClampScalar(uint8_t a[32]) {
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
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
  Fe inv = FeInvert(acc);
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
// of the naive 256-double / ~128-add ladder. Constant time in `a`: digit
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
    // doubling. The final r feeds a projective compare, never an addition.
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
// Naive sign/verify (the original reference path).
// ---------------------------------------------------------------------------

Bytes PublicKeyNaive(const Bytes& seed) {
  Bytes h = Sha512::Hash(seed);
  uint8_t a[32];  // sdrlint:secret
  std::memcpy(a, h.data(), 32);
  ClampScalar(a);
  Point p = PointScalarMul(BasePoint(), a);
  Bytes pub(32);
  PointCompress(pub.data(), p);
  return pub;
}

Bytes SignNaive(const Bytes& seed, const Bytes& message) {
  Bytes h = Sha512::Hash(seed);
  uint8_t a[32];  // sdrlint:secret
  std::memcpy(a, h.data(), 32);
  ClampScalar(a);

  Bytes pub = PublicKeyNaive(seed);

  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.Update(h.data() + 32, 32);
  hr.Update(message);
  Bytes r_hash = hr.Final();
  uint8_t r[32];  // sdrlint:secret
  ScReduceBytes(r, r_hash.data(), r_hash.size());

  Point rp = PointScalarMul(BasePoint(), r);
  uint8_t r_enc[32];
  PointCompress(r_enc, rp);

  // k = SHA512(R || A || M) mod L
  Sha512 hk;
  hk.Update(r_enc, 32);
  hk.Update(pub);
  hk.Update(message);
  Bytes k_hash = hk.Final();
  uint8_t k[32];
  ScReduceBytes(k, k_hash.data(), k_hash.size());

  // S = (r + k*a) mod L
  uint8_t s[32];
  ScMulAdd(s, k, a, r);

  Bytes sig(kEd25519SignatureSize);
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

bool VerifyNaive(const Bytes& public_key, const Bytes& message,
                 const Bytes& signature) {
  const uint8_t* r_enc = signature.data();
  const uint8_t* s = signature.data() + 32;
  Point a_point, r_point;
  if (!PointDecompress(a_point, public_key.data()) ||
      !PointDecompress(r_point, r_enc)) {
    return false;
  }

  Sha512 hk;
  hk.Update(r_enc, 32);
  hk.Update(public_key);
  hk.Update(message);
  Bytes k_hash = hk.Final();
  uint8_t k[32];
  ScReduceBytes(k, k_hash.data(), k_hash.size());

  // Check [S]B == R + [k]A by comparing compressed encodings.
  Point sb = PointScalarMul(BasePoint(), s);
  Point rka = PointAdd(r_point, PointScalarMul(a_point, k));
  uint8_t e1[32], e2[32];
  PointCompress(e1, sb);
  PointCompress(e2, rka);
  // sdrlint:public — R == R' over canonical point encodings; both sides
  // derive from the (public) signature and key, not from signing secrets.
  return std::memcmp(e1, e2, 32) == 0;
}

// ---------------------------------------------------------------------------
// Fast sign/verify.
// ---------------------------------------------------------------------------

// k = SHA512(R || A || M) mod L.
void ChallengeScalar(uint8_t k[32], const uint8_t r_enc[32], const Bytes& pub,
                     const Bytes& message) {
  Sha512 hk;
  hk.Update(r_enc, 32);
  hk.Update(pub);
  hk.Update(message);
  Bytes k_hash = hk.Final();
  ScReduceBytes(k, k_hash.data(), k_hash.size());
}

// Raw seed-to-signature fast path. Unlike ExpandKey + SignExpanded, the
// public-key point and the nonce point R share one field inversion for
// their compressions.
Bytes SignSeedFast(const Bytes& seed, const Bytes& message) {
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
  ScReduceBytes(r, r_hash.data(), r_hash.size());
  Point r_point = ScalarMulBaseCt(r);

  Fe inv = FeInvert(FeMul(a_point.z, r_point.z));
  Bytes pub(32);
  CompressWithZInv(pub.data(), a_point, FeMul(inv, r_point.z));
  uint8_t r_enc[32];
  CompressWithZInv(r_enc, r_point, FeMul(inv, a_point.z));

  uint8_t k[32];
  ChallengeScalar(k, r_enc, pub, message);
  uint8_t s[32];
  ScMulAdd(s, k, a, r);
  CtDeclassify(s, 32);  // S is published in the signature

  Bytes sig(kEd25519SignatureSize);
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

Bytes SignExpandedFast(const Ed25519ExpandedKey& key, const Bytes& message) {
  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.Update(key.prefix, 32);
  hr.Update(message);
  Bytes r_hash = hr.Final();
  uint8_t r[32];  // sdrlint:secret
  ScReduceBytes(r, r_hash.data(), r_hash.size());

  Point rp = ScalarMulBaseCt(r);
  uint8_t r_enc[32];
  PointCompress(r_enc, rp);

  uint8_t k[32];
  ChallengeScalar(k, r_enc, key.public_key, message);

  // S = (r + k*a) mod L
  uint8_t s[32];
  ScMulAdd(s, k, key.scalar, r);
  CtDeclassify(s, 32);  // S is published in the signature

  Bytes sig(kEd25519SignatureSize);
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

bool VerifyFast(const Bytes& public_key, const Bytes& message,
                const Bytes& signature) {
  const uint8_t* r_enc = signature.data();
  const uint8_t* s = signature.data() + 32;
  Point a_point, r_point;
  if (!PointDecompress(a_point, public_key.data()) ||
      !PointDecompress(r_point, r_enc)) {
    return false;
  }

  uint8_t k[32];
  ChallengeScalar(k, r_enc, public_key, message);

  // Check [S]B - [k]A == R with one interleaved double-scalar loop.
  // Comparing against the decompressed R as a point (not the raw bytes)
  // keeps the naive path's acceptance of non-canonical R encodings.
  Point neg_a = PointNeg(a_point);
  Point p = DoubleScalarMulBaseVartime(k, neg_a, s);
  return PointsEqual(p, r_point);
}

}  // namespace

void Ed25519SetFastPath(bool enabled) {
  g_fast_path = enabled;
}

bool Ed25519FastPathEnabled() {
  return g_fast_path;
}

Ed25519ExpandedKey Ed25519ExpandKey(const Bytes& seed) {
  assert(seed.size() == kEd25519SeedSize);
  Bytes h = Sha512::Hash(seed);
  Ed25519ExpandedKey key;
  std::memcpy(key.scalar, h.data(), 32);
  ClampScalar(key.scalar);
  std::memcpy(key.prefix, h.data() + 32, 32);
  Point p = g_fast_path ? ScalarMulBaseCt(key.scalar)
                        : PointScalarMul(BasePoint(), key.scalar);
  key.public_key.resize(32);
  PointCompress(key.public_key.data(), p);
  return key;
}

Bytes Ed25519SignExpanded(const Ed25519ExpandedKey& key, const Bytes& message) {
  if (g_fast_path) {
    return SignExpandedFast(key, message);
  }
  // The naive path has no expanded-key shortcut; re-derive nothing, just
  // run the same equations with the reference ladder.
  Sha512 hr;
  hr.Update(key.prefix, 32);
  hr.Update(message);
  Bytes r_hash = hr.Final();
  uint8_t r[32];
  ScReduceBytes(r, r_hash.data(), r_hash.size());
  Point rp = PointScalarMul(BasePoint(), r);
  uint8_t r_enc[32];
  PointCompress(r_enc, rp);
  uint8_t k[32];
  ChallengeScalar(k, r_enc, key.public_key, message);
  uint8_t s[32];
  ScMulAdd(s, k, key.scalar, r);
  CtDeclassify(s, 32);  // S is published in the signature
  Bytes sig(kEd25519SignatureSize);
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

Bytes Ed25519PublicKey(const Bytes& seed) {
  assert(seed.size() == kEd25519SeedSize);
  if (g_fast_path) {
    return Ed25519ExpandKey(seed).public_key;
  }
  return PublicKeyNaive(seed);
}

Bytes Ed25519Sign(const Bytes& seed, const Bytes& message) {
  assert(seed.size() == kEd25519SeedSize);
  if (g_fast_path) {
    return SignSeedFast(seed, message);
  }
  return SignNaive(seed, message);
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
  if (g_fast_path) {
    return VerifyFast(public_key, message, signature);
  }
  return VerifyNaive(public_key, message, signature);
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
  if (!g_fast_path) {
    return VerifyNaive(key.public_key, message, signature);
  }
  const uint8_t* r_enc = signature.data();
  Point r_point;
  if (!PointDecompress(r_point, r_enc)) {
    return false;
  }
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
  return PointsEqual(h, r_point);
}

}  // namespace sdr
