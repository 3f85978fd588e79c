// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The one JSON writer of the tree. The metrics and trace exports and
// every BENCH_*.json go through it, so escaping, number formatting and
// layout are decided in one place.

#ifndef IPS_UTIL_JSON_H_
#define IPS_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ips {

/// Streams one JSON document into a string. Callers pair every Begin
/// with its End and, inside an object, precede each value with Key; the
/// writer places every comma and newline. Misnesting aborts.
///
/// The rules are fixed. Layout: each member or element on its own line,
/// indented two spaces per level; empty containers print as {} and [];
/// the document ends with a newline. Strings escape `"`, `\` and every
/// byte below 0x20 (\n, \r, \t, the rest as \u00XX). Doubles print with
/// six significant digits, and a non-finite double prints as null.
///
///   JsonWriter json;
///   json.BeginObject().Key("n").Uint(3).Key("ok").Bool(true).EndObject();
///   const std::string text = json.Take();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Uint(std::uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);

  /// The finished document; aborts while a container is still open.
  std::string Take();

 private:
  struct Level {
    bool object = false;
    bool empty = true;
  };

  void NewLine();
  void BeforeValue();
  JsonWriter& Scalar(std::string_view text);
  JsonWriter& Open(bool object);
  JsonWriter& Close(bool object);
  static std::string Quoted(std::string_view text);

  std::string out_;
  std::vector<Level> open_;
  bool after_key_ = false;
};

}  // namespace ips

#endif  // IPS_UTIL_JSON_H_
