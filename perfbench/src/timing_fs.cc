#include "timing_fs.h"

namespace perfbench {

flor::Status TimingFileSystem::WriteFile(const std::string& path,
                                         const std::string& data) {
  ScopedSpan span(rec_, "env.write");
  if (counting()) {
    ++write_calls_;
    write_bytes_ += static_cast<int64_t>(data.size());
  }
  return base_->WriteFile(path, data);
}

flor::Status TimingFileSystem::AppendFile(const std::string& path,
                                          const std::string& data) {
  ScopedSpan span(rec_, "env.write");
  if (counting()) {
    ++write_calls_;
    write_bytes_ += static_cast<int64_t>(data.size());
  }
  return base_->AppendFile(path, data);
}

flor::Result<std::string> TimingFileSystem::ReadFile(
    const std::string& path) const {
  ScopedSpan span(rec_, "env.read");
  flor::Result<std::string> data = base_->ReadFile(path);
  if (counting()) {
    ++read_calls_;
    if (data.ok()) read_bytes_ += static_cast<int64_t>(data->size());
  }
  return data;
}

bool TimingFileSystem::Exists(const std::string& path) const {
  ScopedSpan span(rec_, "env.stat");
  return base_->Exists(path);
}

flor::Result<uint64_t> TimingFileSystem::FileSize(
    const std::string& path) const {
  ScopedSpan span(rec_, "env.stat");
  return base_->FileSize(path);
}

flor::Status TimingFileSystem::DeleteFile(const std::string& path) {
  ScopedSpan span(rec_, "env.delete");
  if (counting()) ++delete_calls_;
  return base_->DeleteFile(path);
}

std::vector<std::string> TimingFileSystem::ListPrefix(
    const std::string& prefix) const {
  ScopedSpan span(rec_, "env.list");
  if (counting()) ++list_calls_;
  return base_->ListPrefix(prefix);
}

FsCounters TimingFileSystem::counters() const {
  FsCounters c;
  c.write_calls = write_calls_.load();
  c.write_bytes = write_bytes_.load();
  c.read_calls = read_calls_.load();
  c.read_bytes = read_bytes_.load();
  c.list_calls = list_calls_.load();
  c.delete_calls = delete_calls_.load();
  return c;
}

void TimingFileSystem::ResetCounters() {
  write_calls_ = 0;
  write_bytes_ = 0;
  read_calls_ = 0;
  read_bytes_ = 0;
  list_calls_ = 0;
  delete_calls_ = 0;
}

}  // namespace perfbench
