#include "serialize/compress.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "serialize/coding.h"

namespace flor {

namespace {

// No LZ token expands to more than this many output bytes per body byte (a
// match: 3 bytes -> at most 259). A header claiming more
// is torn, and is rejected before the output is allocated.
constexpr uint64_t kMaxExpansion = 4 + 255;

// --------------------------------------------------------------- LZSS ---
// Tokens: flag byte governs the next 8 items (LSB first). Bit clear =
// literal byte. Bit set = match: 2-byte little-endian (offset-1) within a
// 64 KiB window, then 1 byte (length - kMinMatch), kMinMatch = 4.

constexpr size_t kWindow = 65536;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 4 + 255;
constexpr size_t kHashBits = 15;
constexpr int kMaxChain = 16;  // bounded chain walk keeps compression O(n)
// Every kSkipStrength consecutive failed searches widen the stride by one
// byte (the LZ4 "skip strength"); a match resets it.
constexpr size_t kSkipStrength = 64;
// Output written past the abort check: one flag byte plus a group of 8
// literals, or one flag byte plus a match token.
constexpr size_t kLzSlack = 16;

inline uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of `a` and `b`, at most `max_len`.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b,
                          size_t max_len) {
  size_t len = 0;
  while (len + 8 <= max_len && std::memcmp(a + len, b + len, 8) == 0)
    len += 8;
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Appends the LZ body of `in` to `*out`. Returns false, leaving a partial
/// body behind, as soon as the body reaches in.size() bytes: the output only
/// grows, so from then on the blob is certain to be stored raw.
///
/// The hash table and its chain hold 32-bit (position + 1), 0 = empty.
/// The chain is a ring over the last min(next_pow2(n), kWindow) positions:
/// a candidate is followed only within the window, where its ring slot
/// still holds its own link. Distances are taken mod 2^32 and a candidate
/// outside [i - kWindow, i) ends the walk, so an entry aliased past 4 GiB
/// can cost a comparison but never produce a wrong match.
bool LzCompress(const std::string& in, std::string* out) {
  const auto* data = reinterpret_cast<const uint8_t*>(in.data());
  const size_t n = in.size();
  if (n == 0) return false;

  size_t ring = 1;
  while (ring < n && ring < kWindow) ring <<= 1;
  const size_t ring_mask = ring - 1;
  std::vector<uint32_t> head(size_t{1} << kHashBits, 0);
  std::vector<uint32_t> prev(ring, 0);
  auto insert = [&](size_t pos) {
    const uint32_t h = HashAt(data + pos);
    prev[pos & ring_mask] = head[h];
    head[h] = static_cast<uint32_t>(pos + 1);
  };

  const size_t base = out->size();
  out->resize(base + n + kLzSlack);
  auto* const begin = reinterpret_cast<uint8_t*>(out->data() + base);
  const uint8_t* const limit = begin + n;
  uint8_t* op = begin;
  // Flag byte of the open group; `bit` is the next item's flag bit, 0 when
  // the group is full and the next item opens a new one.
  uint8_t* flags = nullptr;
  unsigned bit = 0;
  auto open_item = [&]() {
    if (bit == 0) {
      flags = op++;
      *flags = 0;
      bit = 1;
    }
    const unsigned mine = bit;
    bit = (bit << 1) & 0xffu;
    return mine;
  };
  // Literals for in[from, to), whole groups of eight behind a zero flag
  // byte where they fit.
  auto emit_literals = [&](size_t from, size_t to) {
    while (from < to && op < limit) {
      if (bit == 0 && to - from >= 8) {
        *op++ = 0;
        std::memcpy(op, data + from, 8);
        op += 8;
        from += 8;
      } else {
        open_item();
        *op++ = data[from++];
      }
    }
  };

  size_t misses = 0;
  size_t i = 0;
  while (i < n && op < limit) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (i + kMinMatch <= n) {
      const size_t max_len = std::min(kMaxMatch, n - i);
      const size_t reach = std::min(kWindow, i);
      uint32_t cand = head[HashAt(data + i)];
      for (int chain = kMaxChain; chain > 0; --chain) {
        const size_t dist =
            static_cast<uint32_t>(static_cast<uint32_t>(i + 1) - cand);
        if (dist == 0 || dist > reach) break;
        const size_t c = i - dist;
        const size_t len = MatchLength(data + c, data + i, max_len);
        if (len > best_len) {
          best_len = len;
          best_off = dist;
          if (len == max_len) break;
        }
        cand = prev[c & ring_mask];
      }
    }

    if (best_len >= kMinMatch) {
      const unsigned match_bit = open_item();
      *flags |= static_cast<uint8_t>(match_bit);
      const size_t off = best_off - 1;
      op[0] = static_cast<uint8_t>(off & 0xff);
      op[1] = static_cast<uint8_t>(off >> 8);
      op[2] = static_cast<uint8_t>(best_len - kMinMatch);
      op += 3;
      // Insert hash entries for the covered positions.
      const size_t end = std::min(i + best_len, n >= 3 ? n - 3 : 0);
      for (size_t j = i; j < end; ++j) insert(j);
      i += best_len;
      misses = 0;
    } else {
      // A miss: emit in[i], plus one more unsearched, unhashed literal per
      // kSkipStrength misses in a row.
      if (i + kMinMatch <= n) insert(i);
      const size_t next = std::min(i + 1 + misses++ / kSkipStrength, n);
      emit_literals(i, next);
      i = next;
    }
  }
  if (op >= limit) return false;
  out->resize(base + static_cast<size_t>(op - begin));
  return true;
}

/// Decodes into `out`, already sized to the expected output.
Status LzDecompress(const char* in, size_t n, std::string* out) {
  char* const dst = out->data();
  const size_t expected = out->size();
  size_t o = 0;
  size_t i = 0;
  while (i < n) {
    uint8_t flags = static_cast<uint8_t>(in[i++]);
    if (flags == 0 && n - i >= 8 && expected - o >= 8) {
      std::memcpy(dst + o, in + i, 8);  // a whole group of literals
      i += 8;
      o += 8;
      continue;
    }
    for (int b = 0; b < 8 && i < n; ++b) {
      if (flags & (1u << b)) {
        if (i + 3 > n) return Status::Corruption("LZ match token truncated");
        const size_t off =
            static_cast<size_t>(static_cast<uint8_t>(in[i]) |
                                static_cast<uint8_t>(in[i + 1]) << 8) +
            1;
        const size_t len = static_cast<uint8_t>(in[i + 2]) + kMinMatch;
        i += 3;
        if (off > o)
          return Status::Corruption("LZ match offset beyond output");
        if (len > expected - o) return Status::Corruption("LZ size mismatch");
        char* const d = dst + o;
        const char* const s = d - off;
        if (off >= len) {
          std::memcpy(d, s, len);
        } else if (off == 1) {
          std::memset(d, *s, len);
        } else {
          for (size_t k = 0; k < len; ++k) d[k] = s[k];  // overlapping copy
        }
        o += len;
      } else {
        if (o == expected) return Status::Corruption("LZ size mismatch");
        dst[o++] = in[i++];
      }
    }
  }
  if (o != expected) return Status::Corruption("LZ size mismatch");
  return Status::OK();
}

}  // namespace

std::string Compress(const std::string& input, Codec codec) {
  std::string out;
  // Codec byte, varint size (at most 10 bytes), body or raw input, and the
  // LZ encoder's write slack: the one allocation either outcome needs.
  out.reserve(1 + 10 + input.size() + kLzSlack);
  out.push_back(static_cast<char>(codec));
  PutVarint64(&out, input.size());
  const size_t header = out.size();
  bool packed = false;
  switch (codec) {
    case Codec::kNone:
      break;
    case Codec::kLz:
      packed = LzCompress(input, &out);
      break;
  }
  if (!packed) {
    // Compression did not help (or was not asked for): store raw.
    out.resize(header);
    out[0] = static_cast<char>(Codec::kNone);
    out += input;
  }
  return out;
}

Result<std::string> Decompress(const std::string& input) {
  if (input.empty()) return Status::Corruption("empty compressed blob");
  const Codec codec = static_cast<Codec>(input[0]);
  Decoder dec(input.data() + 1, input.size() - 1);
  uint64_t expected = 0;
  FLOR_RETURN_IF_ERROR(dec.GetVarint64(&expected));
  const size_t body_len = dec.remaining();
  const char* const body = input.data() + (input.size() - body_len);
  switch (codec) {
    case Codec::kNone:
      if (body_len != expected)
        return Status::Corruption("raw blob size mismatch");
      return std::string(body, body_len);
    case Codec::kLz: {
      if (expected > body_len * kMaxExpansion)
        return Status::Corruption("size exceeds what the body can encode");
      std::string out(static_cast<size_t>(expected), '\0');
      FLOR_RETURN_IF_ERROR(LzDecompress(body, body_len, &out));
      return out;
    }
  }
  return Status::Corruption("unknown codec byte");
}

}  // namespace flor
