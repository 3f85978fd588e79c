#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.h"

namespace ips {

// Starts a member or element: the separator after its predecessor, then
// a new line at the container's depth.
void JsonWriter::NewLine() {
  Level& level = open_.back();
  if (!level.empty) out_ += ',';
  level.empty = false;
  out_ += '\n';
  out_.append(2 * open_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
  } else if (open_.empty()) {
    IPS_CHECK(out_.empty()) << "a JSON document holds one root value";
  } else {
    IPS_CHECK(!open_.back().object) << "a JSON object member needs a Key";
    NewLine();
  }
}

JsonWriter& JsonWriter::Scalar(std::string_view text) {
  BeforeValue();
  out_ += text;
  if (open_.empty()) out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::Open(bool object) {
  BeforeValue();
  out_ += object ? '{' : '[';
  open_.push_back({object, true});
  return *this;
}

JsonWriter& JsonWriter::Close(bool object) {
  IPS_CHECK(!open_.empty() && open_.back().object == object && !after_key_)
      << "unbalanced JSON container";
  const bool empty = open_.back().empty;
  open_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  out_ += object ? '}' : ']';
  if (open_.empty()) out_ += '\n';
  return *this;
}

std::string JsonWriter::Quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                        static_cast<unsigned>(c));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + '"';
}

JsonWriter& JsonWriter::BeginObject() { return Open(true); }
JsonWriter& JsonWriter::EndObject() { return Close(true); }
JsonWriter& JsonWriter::BeginArray() { return Open(false); }
JsonWriter& JsonWriter::EndArray() { return Close(false); }

JsonWriter& JsonWriter::Key(std::string_view key) {
  IPS_CHECK(!open_.empty() && open_.back().object && !after_key_)
      << "a JSON Key belongs directly inside an object";
  NewLine();
  out_ += Quoted(key) + ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  return Scalar(Quoted(value));
}

JsonWriter& JsonWriter::Uint(std::uint64_t value) {
  return Scalar(std::to_string(value));
}

JsonWriter& JsonWriter::Double(double value) {
  if (!std::isfinite(value)) return Scalar("null");
  char text[32];
  std::snprintf(text, sizeof(text), "%g", value);
  return Scalar(text);
}

JsonWriter& JsonWriter::Bool(bool value) {
  return Scalar(value ? "true" : "false");
}

std::string JsonWriter::Take() {
  IPS_CHECK(open_.empty() && !after_key_) << "unfinished JSON document";
  return std::move(out_);
}

}  // namespace ips
