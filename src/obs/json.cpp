#include "obs/json.hpp"

#include <cctype>
#include <cstdlib>
#include <ostream>

#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::obs::json {

namespace {

/// Deepest container nesting Parse accepts. The writers nest at most 5
/// levels (a wire payload's trace.traceEvents[].args); the bound turns a
/// hostile document into an error instead of a stack overflow.
constexpr int kMaxDepth = 256;

/// Recursive-descent parser that validates and builds in one pass. The first
/// violation throws, so the reported offset is that of the leftmost error.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value Document() {
    Value v;
    SkipWs();
    ParseValue(v, 0);
    SkipWs();
    if (pos_ != text_.size()) Fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void Fail(const char* what) const {
    throw InvalidArgument(std::string("malformed JSON: ") + what +
                          " at offset " + std::to_string(pos_));
  }
  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool Eat(char c) {
    if (!At(c)) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  void Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) Fail("bad literal");
    pos_ += lit.size();
  }

  void ParseValue(Value& v, int depth) {
    if (pos_ >= text_.size()) Fail("expected value");
    switch (text_[pos_]) {
      case '{': return ParseObject(v, depth + 1);
      case '[': return ParseArray(v, depth + 1);
      case '"':
        v.kind = Value::Kind::kString;
        return ParseString(v.str);
      case 't':
      case 'f':
        v.kind = Value::Kind::kBool;
        v.boolean = text_[pos_] == 't';
        return Literal(v.boolean ? "true" : "false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber(v);
    }
  }

  void ParseObject(Value& v, int depth) {
    if (depth > kMaxDepth) Fail("nesting too deep");
    v.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Eat('}')) return;
    while (true) {
      SkipWs();
      std::string key;
      ParseString(key);
      SkipWs();
      if (!Eat(':')) Fail("expected ':'");
      SkipWs();
      ParseValue(v.members.emplace_back(std::move(key), Value()).second,
                 depth);
      SkipWs();
      if (Eat(',')) continue;
      if (Eat('}')) return;
      Fail("expected ',' or '}'");
    }
  }

  void ParseArray(Value& v, int depth) {
    if (depth > kMaxDepth) Fail("nesting too deep");
    v.kind = Value::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Eat(']')) return;
    while (true) {
      SkipWs();
      ParseValue(v.items.emplace_back(), depth);
      SkipWs();
      if (Eat(',')) continue;
      if (Eat(']')) return;
      Fail("expected ',' or ']'");
    }
  }

  void ParseString(std::string& out) {
    if (!Eat('"')) Fail("expected '\"'");
    while (true) {
      const std::size_t stop = text_.find_first_of("\"\\", pos_);
      if (stop == std::string_view::npos) {
        pos_ = text_.size();
        Fail("unterminated string");
      }
      out.append(text_.substr(pos_, stop - pos_));
      pos_ = stop + 1;
      if (text_[stop] == '"') return;
      if (pos_ >= text_.size()) Fail("bad escape");
      char c = text_[pos_++];
      switch (c) {
        case '"': case '\\': case '/': break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u':
          // The writers never emit \u escapes; decode as '?' rather than
          // carrying a UTF-8 encoder.
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              Fail("bad \\u escape");
            }
          }
          c = '?';
          break;
        default:
          Fail("bad escape");
      }
      out.push_back(c);
    }
  }

  void ParseNumber(Value& v) {
    const std::size_t start = pos_;
    // Returns whether at least one digit was eaten.
    auto eat_digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      return pos_ > from;
    };
    auto fail = [&] {
      pos_ = start;
      Fail("expected number");
    };
    if (At('-') || At('+')) ++pos_;
    bool digits = eat_digits();
    if (Eat('.')) digits = eat_digits() || digits;
    if (!digits) fail();  // a mantissa needs a digit: ".e1" is no number
    if (At('e') || At('E')) {
      ++pos_;
      if (At('-') || At('+')) ++pos_;
      if (!eat_digits()) fail();  // nor is "1e" or "1e+"
    }
    v.kind = Value::Kind::kNumber;
    // strtod needs a terminated copy: a string_view is not null-terminated.
    const std::string token(text_.substr(start, pos_ - start));
    v.number = std::strtod(token.c_str(), nullptr);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void AppendKeyPaths(const Value& v, const std::string& path,
                    std::vector<std::string>& out) {
  for (const Value& item : v.items) AppendKeyPaths(item, path, out);
  for (const auto& [key, child] : v.members) {
    std::string child_path = path.empty() ? key : path + "." + key;
    out.push_back(child_path);
    AppendKeyPaths(child, child_path, out);
  }
}

}  // namespace

Value Parse(std::string_view text) { return Parser(text).Document(); }

std::vector<std::string> KeyPaths(const Value& v) {
  std::vector<std::string> out;
  AppendKeyPaths(v, "", out);
  return out;
}

void WriteString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void WriteTrackRecords(std::ostream& os, std::uint64_t pid, std::uint64_t tid,
                       std::string_view name) {
  os << R"({"ph": "M", "name": "thread_name", "pid": )" << pid
     << R"(, "tid": )" << tid << R"(, "args": {"name": )";
  WriteString(os, name);
  // Explicit sort index keeps the Perfetto track order stable (= creation
  // order) instead of first-event order.
  os << "}},\n  " << R"({"ph": "M", "name": "thread_sort_index", "pid": )"
     << pid << R"(, "tid": )" << tid << R"(, "args": {"sort_index": )" << tid
     << "}}";
}

void WriteSpanEvent(std::ostream& os, std::string_view name,
                    std::string_view cat, std::uint64_t pid, std::uint64_t tid,
                    double begin_s, double dur_s, std::uint64_t iteration,
                    double wall_s, std::int64_t peer, std::uint64_t tag) {
  os << R"({"ph": "X", "name": )";
  WriteString(os, name);
  // Seconds -> trace microseconds.
  os << R"(, "cat": ")" << cat << R"(", "pid": )" << pid << R"(, "tid": )"
     << tid << R"(, "ts": )" << FormatDouble(begin_s * 1e6, 15)
     << R"(, "dur": )" << FormatDouble(dur_s * 1e6, 15)
     << R"(, "args": {"iter": )" << iteration << R"(, "wall_us": )"
     << FormatDouble(wall_s * 1e6, 9);
  if (peer >= 0) os << R"(, "peer": )" << peer << R"(, "tag": )" << tag;
  os << "}}";
}

}  // namespace psra::obs::json
