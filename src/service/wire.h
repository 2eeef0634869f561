// Wire protocol for the service front-end (service/server.h).
//
// Every message is one sectioned message (serialize/sections.h), the same
// codec the fork runner's worker result files use:
//
//   frame 0  header  "florwir1\t<req|res>\t<n>"  (n = payload sections)
//   frame 1..n       one payload section each
//
// so it carries the same tamper-evidence contract: decoding a torn or
// mutated message always fails with Corruption — never a crash, never a
// garbage request. Scalar fields travel in "key\tvalue\n" meta blocks and
// a response opens with its Status. On the socket, each message travels
// as [u32 LE total length][message bytes] (server.h).
//
// Error taxonomy: structural problems (bad magic, wrong kind, bad CRC,
// section-count mismatch, malformed meta) are Corruption; semantically
// invalid but well-formed requests (unknown op, bad tenant name) decode
// fine and earn a typed error *response* from the server instead.

#ifndef FLOR_SERVICE_WIRE_H_
#define FLOR_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/store.h"
#include "common/status.h"
#include "flor/query.h"
#include "service/service.h"

namespace flor {
namespace wire {

/// Default cap on one message's total encoded size (requests carry no
/// bulk data; responses carry manifests and merged logs, which stay far
/// below this for any realistic run).
inline constexpr uint32_t kMaxWireMessageBytes = 64u << 20;

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

/// One server response: the call's Status, plus op-specific payload
/// sections (see the *Reply structs). A failed call has no payload.
struct Response {
  Response() = default;
  /// A failed call's response.
  explicit Response(Status s) : status(std::move(s)) {}

  Status status;
  std::vector<std::string> payload;

  bool ok() const { return status.ok(); }
};

std::string EncodeResponse(const Response& res);
Result<Response> DecodeResponse(const std::string& message);

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
  TierStats tier;  ///< read-tier traffic summed over the workers
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
