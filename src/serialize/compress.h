// Block compression for checkpoints.
//
// The paper gzip-compresses checkpoints before spooling them to S3 (Table 4).
// Offline, the stand-in is one from-scratch codec, kLz: LZSS-style
// Lempel-Ziv with a 64 KiB window and a chained hash table. The codec byte
// is stored with the block, so readers self-describe: 0 is a raw block, 2
// an LZ block. Tag 1 (a run-length codec no stored object ever used) is
// retired and decodes as Corruption, like any unknown tag.
//
// The LZ encoder's cost follows the matches it finds. After a streak of
// failed searches it accelerates: every 64 misses in a row widen the stride
// by one byte (the LZ4 "skip strength"), and the bytes stepped over go out
// as literals without being searched or hashed; any match resets the
// streak. Dense float weights, where matches are rare, so cost little more
// than a copy, while zero and constant regions of the same blob still
// compress, because the decision is made region by region. The encoder
// stops as soon as its output reaches the input size, since the blob is
// then certain to be stored raw. The hash chain is a ring over the last
// min(next_pow2(n), 64 KiB) positions, so small blobs allocate little.

#ifndef FLOR_SERIALIZE_COMPRESS_H_
#define FLOR_SERIALIZE_COMPRESS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace flor {

enum class Codec : uint8_t {
  kNone = 0,
  kLz = 2,
};

/// Compresses `input`, prepending a 1-byte codec tag and a varint of the
/// uncompressed size. If compression does not help, stores raw with kNone.
std::string Compress(const std::string& input, Codec codec);

/// Inverse of Compress. Fails with Corruption on malformed input.
Result<std::string> Decompress(const std::string& input);

}  // namespace flor

#endif  // FLOR_SERIALIZE_COMPRESS_H_
