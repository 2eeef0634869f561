// Sectioned messages — the one format every out-of-band message uses.
//
// A replay worker process hands its result (or its error) to the
// coordinator in a scratch file (exec/fork_runner.h), and the service
// answers over a socket (service/wire.h). Both are sectioned messages:
//
//   frame 0  header  "<tag>\t<n>"   (n = number of sections)
//   frame 1..n       one section each
//
// with each frame [fixed32 crc][varint len][payload] (serialize/frame.h).
// The tag names the message kind ("florres1" for worker files,
// "florwir1\treq" / "florwir1\tres" on the wire). The header count makes a
// cut at an exact frame boundary — the one cut a bare frame stream cannot
// see — detectable; every other cut or flipped byte is caught by a frame
// CRC. Decoding torn or mutated bytes therefore fails with Corruption,
// never a crash and never a plausible-looking message.
//
// Scalar fields travel in a meta block: one "key\tvalue\n" line per field,
// ints in decimal, doubles as hexfloat (bit-exact round trip), bools as
// 0/1. The reader expects the keys in the order the writer wrote them, so
// a missing, extra, duplicated or reordered key is Corruption: a meta block
// that deviates from its fixed shape was not written by its encoder. A
// Status travels as a meta block holding its code, then its raw message.

#ifndef FLOR_SERIALIZE_SECTIONS_H_
#define FLOR_SERIALIZE_SECTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/status.h"

namespace flor {

/// Encodes `sections` as one message tagged `tag`.
std::string EncodeSections(const std::string& tag,
                           const std::vector<std::string>& sections);

/// Decodes a message back into its sections, requiring `tag`. Any cut, bad
/// CRC, wrong tag or section-count mismatch is Corruption.
Result<std::vector<std::string>> DecodeSections(const std::string& tag,
                                                const std::string& data);

/// Builds one meta block, field by field.
class MetaWriter {
 public:
  MetaWriter& Str(const char* key, const std::string& value);
  MetaWriter& Int(const char* key, int64_t value);
  MetaWriter& Double(const char* key, double value);
  MetaWriter& Bool(const char* key, bool value);
  /// One Int line per counter of `fields`, named as listed.
  template <typename T, size_t N>
  MetaWriter& Counters(const T& from, const CounterField<T> (&fields)[N]) {
    for (const CounterField<T>& f : fields) Int(f.name, from.*f.member);
    return *this;
  }

  std::string Finish() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads a meta block back in the writer's key order. `what` names the
/// block in error messages ("worker result", "wire request"); `block` must
/// outlive the reader.
class MetaReader {
 public:
  MetaReader(const std::string& block, const char* what)
      : block_(block), what_(what) {}

  Result<std::string> Str(const char* key);
  Result<int64_t> Int(const char* key);
  Result<double> Double(const char* key);
  Result<bool> Bool(const char* key);
  template <typename T, size_t N>
  Status Counters(T* into, const CounterField<T> (&fields)[N]) {
    for (const CounterField<T>& f : fields) {
      FLOR_ASSIGN_OR_RETURN(into->*f.member, Int(f.name));
    }
    return Status::OK();
  }

  /// Corruption unless every line has been read.
  Status Finish() const;

 private:
  const std::string& block_;
  const char* what_;
  size_t pos_ = 0;
};

/// Appends `status` as two sections: a meta block with its code, then its
/// message verbatim.
void AppendStatusSections(const Status& status,
                          std::vector<std::string>* sections);

/// Reads the Status AppendStatusSections wrote at the front of `sections`
/// into `*out`. Corruption when fewer than two sections are present, the
/// meta block is malformed, or the code names no StatusCode.
Status ReadStatusSections(const std::vector<std::string>& sections,
                          Status* out);

}  // namespace flor

#endif  // FLOR_SERIALIZE_SECTIONS_H_
