#include "serialize/sections.h"

#include "common/strings.h"
#include "serialize/frame.h"

namespace flor {

std::string EncodeSections(const std::string& tag,
                           const std::vector<std::string>& sections) {
  std::string out;
  AppendFrame(&out, StrCat(tag, "\t", sections.size()));
  for (const std::string& section : sections) AppendFrame(&out, section);
  return out;
}

Result<std::vector<std::string>> DecodeSections(const std::string& tag,
                                                const std::string& data) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> frames, ReadFrames(data));
  if (frames.empty())
    return Status::Corruption(StrCat(tag, ": missing header frame"));
  const std::string& header = frames[0];
  uint64_t declared = 0;
  if (header.size() <= tag.size() ||
      header.compare(0, tag.size(), tag) != 0 || header[tag.size()] != '\t' ||
      !ParseU64(header.substr(tag.size() + 1), &declared)) {
    return Status::Corruption(
        StrCat("expected a '", tag, "' message, got header '", header, "'"));
  }
  if (declared != frames.size() - 1) {
    return Status::Corruption(
        StrCat(tag, ": header declares ", declared, " sections but ",
               frames.size() - 1,
               " are present (truncated at a frame boundary?)"));
  }
  frames.erase(frames.begin());
  return frames;
}

MetaWriter& MetaWriter::Str(const char* key, const std::string& value) {
  out_.append(key).append(1, '\t').append(value).append(1, '\n');
  return *this;
}

MetaWriter& MetaWriter::Int(const char* key, int64_t value) {
  return Str(key, std::to_string(value));
}

MetaWriter& MetaWriter::Double(const char* key, double value) {
  return Str(key, StrFormat("%a", value));
}

MetaWriter& MetaWriter::Bool(const char* key, bool value) {
  return Int(key, value ? 1 : 0);
}

Result<std::string> MetaReader::Str(const char* key) {
  if (pos_ >= block_.size())
    return Status::Corruption(StrCat(what_, ": missing key '", key, "'"));
  const size_t end = block_.find('\n', pos_);
  if (end == std::string::npos) {
    return Status::Corruption(
        StrCat(what_, ": unterminated line for key '", key, "'"));
  }
  const size_t key_len = std::char_traits<char>::length(key);
  if (end - pos_ <= key_len || block_.compare(pos_, key_len, key) != 0 ||
      block_[pos_ + key_len] != '\t') {
    return Status::Corruption(
        StrCat(what_, ": expected key '", key, "', got line '",
               block_.substr(pos_, end - pos_), "'"));
  }
  std::string value =
      block_.substr(pos_ + key_len + 1, end - pos_ - key_len - 1);
  pos_ = end + 1;
  return value;
}

Result<int64_t> MetaReader::Int(const char* key) {
  FLOR_ASSIGN_OR_RETURN(const std::string value, Str(key));
  int64_t out = 0;
  if (!ParseI64(value, &out)) {
    return Status::Corruption(
        StrCat(what_, ": '", key, "' is not an integer: '", value, "'"));
  }
  return out;
}

Result<double> MetaReader::Double(const char* key) {
  FLOR_ASSIGN_OR_RETURN(const std::string value, Str(key));
  double out = 0;
  if (!ParseF64(value, &out)) {
    return Status::Corruption(
        StrCat(what_, ": '", key, "' is not a double: '", value, "'"));
  }
  return out;
}

Result<bool> MetaReader::Bool(const char* key) {
  FLOR_ASSIGN_OR_RETURN(const int64_t flag, Int(key));
  if (flag != 0 && flag != 1) {
    return Status::Corruption(
        StrCat(what_, ": '", key, "' must be 0/1, got ", flag));
  }
  return flag == 1;
}

Status MetaReader::Finish() const {
  if (pos_ == block_.size()) return Status::OK();
  return Status::Corruption(
      StrCat(what_, ": unexpected line '",
             block_.substr(pos_, block_.find('\n', pos_) - pos_), "'"));
}

void AppendStatusSections(const Status& status,
                          std::vector<std::string>* sections) {
  sections->push_back(
      MetaWriter().Int("code", static_cast<int64_t>(status.code())).Finish());
  sections->push_back(status.message());
}

Status ReadStatusSections(const std::vector<std::string>& sections,
                          Status* out) {
  if (sections.size() < 2) {
    return Status::Corruption(
        StrCat("status: expected >= 2 sections, got ", sections.size()));
  }
  MetaReader meta(sections[0], "status");
  FLOR_ASSIGN_OR_RETURN(const int64_t code, meta.Int("code"));
  FLOR_RETURN_IF_ERROR(meta.Finish());
  if (!IsValidStatusCode(code))
    return Status::Corruption(StrCat("status: invalid code ", code));
  *out = Status(static_cast<StatusCode>(code), sections[1]);
  return Status::OK();
}

}  // namespace flor
