// Sectioned result files — how a replay worker process reports back.
//
// The fork-pool replay runner (exec/fork_runner.h) forks one worker per
// log partition; each worker hands its merged-log fragment and
// stats to the parent through a file in a posix scratch directory. That
// file must be tamper-evident: a worker SIGKILLed mid-write, a truncated
// disk, or a flipped byte must surface as Corruption on read — never as a
// silently merged garbage fragment.
//
// Layout (all length-prefixed, CRC-framed via serialize/frame.h):
//   frame 0  header  "florres1\t<n>"   (n = number of payload sections)
//   frame 1..n       one payload section each
//
// The header count makes truncation at an exact frame boundary — the one
// cut a bare frame stream cannot see — detectable; every other cut or
// mutation is caught by the per-frame CRC.

#ifndef FLOR_ENV_RESULT_FILE_H_
#define FLOR_ENV_RESULT_FILE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "env/filesystem.h"

namespace flor {

/// Encodes `sections` as a header frame plus one frame per section.
std::string EncodeResultSections(const std::vector<std::string>& sections);

/// Decodes a result file back into its sections. Any truncation (including
/// an empty file or a cut at a frame boundary), bad magic, or byte
/// mutation fails with Corruption.
Result<std::vector<std::string>> DecodeResultSections(
    const std::string& data);

/// Atomically writes `sections` as one result file at `path`.
Status WriteResultFile(FileSystem* fs, const std::string& path,
                       const std::vector<std::string>& sections);

/// Reads and decodes the result file at `path`. NotFound when the file was
/// never (or not yet durably) written; Corruption when it is torn.
Result<std::vector<std::string>> ReadResultFile(const FileSystem* fs,
                                                const std::string& path);

}  // namespace flor

#endif  // FLOR_ENV_RESULT_FILE_H_
