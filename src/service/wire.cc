#include "service/wire.h"

#include <utility>

#include "common/strings.h"
#include "serialize/sections.h"

namespace flor {
namespace wire {

namespace {

// Section tags of the two message kinds: the wire magic "florwir1" (bumping
// it is a wire-format break) and which side of the exchange a message
// claims to be. A response decoded as a request (or vice versa) is
// Corruption: a desynced stream must not be half-interpreted.
const std::string kRequestTag = "florwir1\treq";
const std::string kResponseTag = "florwir1\tres";

Status ExpectPayload(const Response& res, size_t n, const char* what) {
  if (!res.ok()) return res.status;
  if (res.payload.size() == n) return Status::OK();
  return Status::Corruption(StrCat(what, ": expected ", n,
                                   " payload sections, got ",
                                   res.payload.size()));
}

}  // namespace

std::string EncodeRequest(const Request& req) {
  const std::string meta = MetaWriter()
                               .Str("op", req.op)
                               .Str("tenant", req.tenant)
                               .Str("run", req.run)
                               .Str("workload", req.workload)
                               .Str("engine", req.engine)
                               .Int("workers", req.workers)
                               .Int("loop_id", req.loop_id)
                               .Finish();
  return EncodeSections(kRequestTag, {meta, req.ctx});
}

Result<Request> DecodeRequest(const std::string& message) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kRequestTag, message));
  if (sections.size() != 2) {
    return Status::Corruption(
        StrCat("wire request: expected 2 sections, got ", sections.size()));
  }
  MetaReader meta(sections[0], "wire request");
  Request req;
  FLOR_ASSIGN_OR_RETURN(req.op, meta.Str("op"));
  FLOR_ASSIGN_OR_RETURN(req.tenant, meta.Str("tenant"));
  FLOR_ASSIGN_OR_RETURN(req.run, meta.Str("run"));
  FLOR_ASSIGN_OR_RETURN(req.workload, meta.Str("workload"));
  FLOR_ASSIGN_OR_RETURN(req.engine, meta.Str("engine"));
  FLOR_ASSIGN_OR_RETURN(req.workers, meta.Int("workers"));
  FLOR_ASSIGN_OR_RETURN(const int64_t loop, meta.Int("loop_id"));
  FLOR_RETURN_IF_ERROR(meta.Finish());
  if (loop < INT32_MIN || loop > INT32_MAX) {
    return Status::Corruption(
        StrCat("wire request: loop_id out of range: ", loop));
  }
  req.loop_id = static_cast<int32_t>(loop);
  req.ctx = std::move(sections[1]);
  return req;
}

std::string EncodeResponse(const Response& res) {
  std::vector<std::string> sections;
  sections.reserve(res.payload.size() + 2);
  AppendStatusSections(res.status, &sections);
  sections.insert(sections.end(), res.payload.begin(), res.payload.end());
  return EncodeSections(kResponseTag, sections);
}

Result<Response> DecodeResponse(const std::string& message) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kResponseTag, message));
  Response res;
  FLOR_RETURN_IF_ERROR(ReadStatusSections(sections, &res.status));
  res.payload.assign(std::make_move_iterator(sections.begin() + 2),
                     std::make_move_iterator(sections.end()));
  return res;
}

Response MakeRecordReply(const RecordReply& reply) {
  Response res;
  res.payload = {MetaWriter()
                     .Int("checkpoints", reply.checkpoints)
                     .Double("runtime_seconds", reply.runtime_seconds)
                     .Double("admission_wait_seconds",
                             reply.admission_wait_seconds)
                     .Finish(),
                 reply.manifest};
  return res;
}

Result<RecordReply> ParseRecordReply(const Response& res) {
  FLOR_RETURN_IF_ERROR(ExpectPayload(res, 2, "record reply"));
  MetaReader meta(res.payload[0], "record reply");
  RecordReply reply;
  FLOR_ASSIGN_OR_RETURN(reply.checkpoints, meta.Int("checkpoints"));
  FLOR_ASSIGN_OR_RETURN(reply.runtime_seconds,
                        meta.Double("runtime_seconds"));
  FLOR_ASSIGN_OR_RETURN(reply.admission_wait_seconds,
                        meta.Double("admission_wait_seconds"));
  FLOR_RETURN_IF_ERROR(meta.Finish());
  reply.manifest = res.payload[1];
  return reply;
}

Response MakeReplayReply(const ReplayReply& reply) {
  Response res;
  res.payload = {MetaWriter()
                     .Int("workers_used", reply.workers_used)
                     .Double("latency_seconds", reply.latency_seconds)
                     .Double("wall_seconds", reply.wall_seconds)
                     .Counters(reply.tier, TierStats::kFields)
                     .Bool("deferred_ok", reply.deferred_ok)
                     .Finish(),
                 reply.merged_logs};
  return res;
}

Result<ReplayReply> ParseReplayReply(const Response& res) {
  FLOR_RETURN_IF_ERROR(ExpectPayload(res, 2, "replay reply"));
  MetaReader meta(res.payload[0], "replay reply");
  ReplayReply reply;
  FLOR_ASSIGN_OR_RETURN(reply.workers_used, meta.Int("workers_used"));
  FLOR_ASSIGN_OR_RETURN(reply.latency_seconds,
                        meta.Double("latency_seconds"));
  FLOR_ASSIGN_OR_RETURN(reply.wall_seconds, meta.Double("wall_seconds"));
  FLOR_RETURN_IF_ERROR(meta.Counters(&reply.tier, TierStats::kFields));
  FLOR_ASSIGN_OR_RETURN(reply.deferred_ok, meta.Bool("deferred_ok"));
  FLOR_RETURN_IF_ERROR(meta.Finish());
  reply.merged_logs = res.payload[1];
  return reply;
}

Response MakeQueryReply(const QueryReply& reply) {
  Response res;
  res.payload.reserve(reply.runs.size() + 1);
  res.payload.push_back(
      MetaWriter().Int("runs", static_cast<int64_t>(reply.runs.size()))
          .Finish());
  for (const RunInfo& run : reply.runs) {
    res.payload.push_back(
        MetaWriter()
            .Str("prefix", run.prefix)
            .Str("workload", run.workload)
            .Double("record_runtime_seconds", run.record_runtime_seconds)
            .Int("checkpoints", run.checkpoints)
            .Finish());
  }
  return res;
}

Result<QueryReply> ParseQueryReply(const Response& res) {
  if (!res.ok()) return res.status;
  if (res.payload.empty()) {
    return Status::Corruption("query reply: missing count section");
  }
  MetaReader head(res.payload[0], "query reply");
  FLOR_ASSIGN_OR_RETURN(const int64_t count, head.Int("runs"));
  FLOR_RETURN_IF_ERROR(head.Finish());
  if (count < 0 || static_cast<size_t>(count) != res.payload.size() - 1) {
    return Status::Corruption(
        StrCat("query reply: declares ", count, " runs but ",
               res.payload.size() - 1, " sections follow"));
  }
  QueryReply reply;
  reply.runs.reserve(static_cast<size_t>(count));
  for (size_t i = 1; i < res.payload.size(); ++i) {
    MetaReader meta(res.payload[i], "query reply run");
    RunInfo run;
    FLOR_ASSIGN_OR_RETURN(run.prefix, meta.Str("prefix"));
    FLOR_ASSIGN_OR_RETURN(run.workload, meta.Str("workload"));
    FLOR_ASSIGN_OR_RETURN(run.record_runtime_seconds,
                          meta.Double("record_runtime_seconds"));
    FLOR_ASSIGN_OR_RETURN(run.checkpoints, meta.Int("checkpoints"));
    FLOR_RETURN_IF_ERROR(meta.Finish());
    reply.runs.push_back(std::move(run));
  }
  return reply;
}

Response MakeExistsReply(const ExistsReply& reply) {
  Response res;
  res.payload = {MetaWriter().Bool("exists", reply.exists).Finish()};
  return res;
}

Result<ExistsReply> ParseExistsReply(const Response& res) {
  FLOR_RETURN_IF_ERROR(ExpectPayload(res, 1, "exists reply"));
  MetaReader meta(res.payload[0], "exists reply");
  ExistsReply reply;
  FLOR_ASSIGN_OR_RETURN(reply.exists, meta.Bool("exists"));
  FLOR_RETURN_IF_ERROR(meta.Finish());
  return reply;
}

const char* EngineName(ReplayEngine engine) {
  switch (engine) {
    case ReplayEngine::kSimulated:
      return "sim";
    case ReplayEngine::kThreads:
      return "threads";
    case ReplayEngine::kProcesses:
      return "procs";
  }
  return "sim";
}

Result<ReplayEngine> ParseEngine(const std::string& name) {
  if (name == "sim") return ReplayEngine::kSimulated;
  if (name == "threads") return ReplayEngine::kThreads;
  if (name == "procs") return ReplayEngine::kProcesses;
  return Status::InvalidArgument(
      StrCat("unknown replay engine '", name,
             "' (expected sim, threads, or procs)"));
}

}  // namespace wire
}  // namespace flor
