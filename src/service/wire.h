// Wire protocol for the service front-end (service/server.h).
//
// Messages reuse the sectioned CRC-framing idiom of env/result_file.h —
// the same tamper-evidence contract, applied to a socket instead of a
// scratch file:
//
//   frame 0  header  "florwir1\t<req|res>\t<n>"  (n = payload sections)
//   frame 1..n       one payload section each
//
// with each frame [fixed32 crc][varint len][payload] (serialize/frame.h).
// The header count catches truncation at an exact frame boundary; every
// other cut or flipped byte is caught by a frame CRC. Decoding a torn or
// mutated message therefore always fails with Corruption — never a
// crash, never a garbage request. On the socket, each message travels as
// [u32 LE total length][message bytes] (server.h).
//
// Error taxonomy: structural problems (bad magic, wrong kind, bad CRC,
// section-count mismatch, malformed meta) are Corruption; semantically
// invalid but well-formed requests (unknown op, bad tenant name) decode
// fine and earn a typed error *response* from the server instead.

#ifndef FLOR_SERVICE_WIRE_H_
#define FLOR_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flor/query.h"
#include "service/service.h"

namespace flor {
namespace wire {

/// Magic of frame 0; bumping it is a wire-format break.
inline constexpr char kWireMagic[] = "florwir1";

/// Default cap on one message's total encoded size (requests carry no
/// bulk data; responses carry manifests and merged logs, which stay far
/// below this for any realistic run).
inline constexpr uint32_t kMaxWireMessageBytes = 64u << 20;

/// Which side of the exchange a message claims to be. A response decoded
/// as a request (or vice versa) is Corruption — a desynced stream must
/// not be half-interpreted.
enum class WireKind { kRequest, kResponse };

/// Encodes `sections` as one wire message of `kind`.
std::string EncodeWireSections(WireKind kind,
                               const std::vector<std::string>& sections);

/// Decodes a wire message back into its sections, requiring `expected`
/// kind. Corruption on any structural problem.
Result<std::vector<std::string>> DecodeWireSections(
    WireKind expected, const std::string& data);

/// One client request. `op` selects the Session call; the remaining
/// fields are that call's arguments. Unknown ops/engines survive
/// decoding (they are semantic errors, answered with a typed response).
struct Request {
  std::string op;        ///< "record" | "replay" | "query" | "exists"
  std::string tenant;
  std::string run;       ///< record / replay / exists
  std::string workload;  ///< resolver spec (record / replay)
  std::string engine = "sim";  ///< replay: "sim" | "threads" | "procs"
  int64_t workers = 1;         ///< replay partition count
  int32_t loop_id = 0;         ///< exists: checkpoint key loop
  std::string ctx;             ///< exists: checkpoint key context (raw)
};

std::string EncodeRequest(const Request& req);
Result<Request> DecodeRequest(const std::string& message);

/// One server response: a status code + message, plus op-specific
/// payload sections (see the *Reply structs).
struct Response {
  int64_t code = 0;  ///< StatusCode as integer
  std::string message;
  std::vector<std::string> payload;

  bool ok() const { return code == 0; }
  /// Reconstructs the Status a failed call carried.
  Status ToStatus() const;
};

std::string EncodeResponse(const Response& res);
Result<Response> DecodeResponse(const std::string& message);

/// The error-shaped response for `status` (no payload).
Response ErrorResponse(const Status& status);

/// record: the manifest as recorded, before any retirement pass prunes
/// it — byte-identical to the manifest file an in-process Session::Record
/// writes.
struct RecordReply {
  int64_t checkpoints = 0;
  double runtime_seconds = 0;
  double admission_wait_seconds = 0;
  std::string manifest;
};
Response MakeRecordReply(const RecordReply& reply);
Result<RecordReply> ParseRecordReply(const Response& res);

/// replay: merged logs travel in LogStream's line encoding — pinned
/// byte-identical across all three engines, so the wire answer can be
/// compared bytewise against an in-process replay.
struct ReplayReply {
  int64_t workers_used = 0;
  double latency_seconds = 0;
  double wall_seconds = 0;
  int64_t bucket_faults = 0;
  int64_t bloom_skipped_probes = 0;
  bool deferred_ok = false;
  std::string merged_logs;
};
Response MakeReplayReply(const ReplayReply& reply);
Result<ReplayReply> ParseReplayReply(const Response& res);

/// query: the tenant's run listing (doubles as hexfloat, bit-exact).
struct QueryReply {
  std::vector<RunInfo> runs;
};
Response MakeQueryReply(const QueryReply& reply);
Result<QueryReply> ParseQueryReply(const Response& res);

/// exists: one bool.
struct ExistsReply {
  bool exists = false;
};
Response MakeExistsReply(const ExistsReply& reply);
Result<ExistsReply> ParseExistsReply(const Response& res);

/// "sim" / "threads" / "procs" <-> ReplayEngine. Unknown names are
/// InvalidArgument (semantic, not Corruption).
const char* EngineName(ReplayEngine engine);
Result<ReplayEngine> ParseEngine(const std::string& name);

}  // namespace wire
}  // namespace flor

#endif  // FLOR_SERVICE_WIRE_H_
