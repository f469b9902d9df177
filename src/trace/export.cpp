#include "trace/export.hpp"

#include <array>
#include <charconv>

namespace cord::trace {

namespace {

/// Strict integer parse: the whole field must be a number.
template <typename T>
bool parse_int(std::string_view s, T& v) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  return r.ec == std::errc{} && r.ptr == s.data() + s.size();
}

/// Exact inverse of the "%.6f" microsecond encoding: split at the decimal
/// point and recombine as integer picoseconds (no floating point, so no
/// rounding anywhere).
bool parse_us_to_ps(std::string_view s, sim::Time& out) {
  const std::size_t dot = s.find('.');
  std::int64_t whole = 0;
  if (!parse_int(s.substr(0, dot), whole)) return false;
  std::int64_t frac = 0;
  if (dot != std::string_view::npos) {
    const std::string_view fs = s.substr(dot + 1);
    if (fs.size() > 6 || !parse_int(fs, frac)) return false;
    for (std::size_t i = fs.size(); i < 6; ++i) frac *= 10;
  }
  out = whole * 1'000'000 + frac;
  return true;
}

/// Value of `key` (e.g. "\"ts\":") inside one JSON event object written
/// by write_event; values run to the next ',' or '}'.
bool find_field(std::string_view obj, std::string_view key,
                std::string_view& val) {
  const std::size_t p = obj.find(key);
  if (p == std::string_view::npos) return false;
  const std::size_t start = p + key.size();
  std::size_t end = start;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  val = obj.substr(start, end - start);
  return true;
}

void write_event(std::FILE* f, const Record& r, bool first) {
  // Chrome's ts/dur unit is microseconds; virtual time is picoseconds.
  const double ts_us = static_cast<double>(r.t) / 1e6;
  const double dur_us = static_cast<double>(r.dur) / 1e6;
  const std::string_view name = to_string(r.point);
  const std::string_view cat = category(r.point);
  if (!first) std::fputs(",\n", f);
  if (r.dur > 0) {
    std::fprintf(f,
                 "{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.6f,\"dur\":%.6f,\"pid\":%u,\"tid\":%u,",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(cat.size()), cat.data(), ts_us, dur_us,
                 static_cast<unsigned>(r.node), r.qpn);
  } else {
    std::fprintf(f,
                 "{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"i\","
                 "\"s\":\"t\",\"ts\":%.6f,\"pid\":%u,\"tid\":%u,",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(cat.size()), cat.data(), ts_us,
                 static_cast<unsigned>(r.node), r.qpn);
  }
  std::fprintf(f,
               "\"args\":{\"span\":%u,\"tenant\":%u,\"arg\":%llu,\"aux\":%u}}",
               r.span, r.tenant, static_cast<unsigned long long>(r.arg),
               static_cast<unsigned>(r.aux));
}

}  // namespace

void write_chrome_trace(std::FILE* f, std::span<const Record> records) {
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Record& r : records) {
    write_event(f, r, first);
    first = false;
  }
  std::fputs("\n]}\n", f);
}

std::string chrome_trace_json(std::span<const Record> records) {
  // Render through a tmpfile so the FILE*-based writer is the single
  // formatting implementation.
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return {};
  write_chrome_trace(f, records);
  const long len = std::ftell(f);
  std::string out(static_cast<std::size_t>(len), '\0');
  std::rewind(f);
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  std::fclose(f);
  return out;
}

bool write_chrome_trace_file(const char* path,
                             std::span<const Record> records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  write_chrome_trace(f, records);
  std::fclose(f);
  return true;
}

void write_records_csv(std::FILE* f, std::span<const Record> records) {
  std::fprintf(f, "t_ps,dur_ps,point,span,qpn,tenant,node,arg,aux\n");
  for (const Record& r : records) {
    const std::string_view name = to_string(r.point);
    std::fprintf(f, "%lld,%lld,%.*s,%u,%u,%u,%u,%llu,%u\n",
                 static_cast<long long>(r.t), static_cast<long long>(r.dur),
                 static_cast<int>(name.size()), name.data(), r.span, r.qpn,
                 r.tenant, static_cast<unsigned>(r.node),
                 static_cast<unsigned long long>(r.arg),
                 static_cast<unsigned>(r.aux));
  }
}

std::string records_csv(std::span<const Record> records) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return {};
  write_records_csv(f, records);
  const long len = std::ftell(f);
  std::string out(static_cast<std::size_t>(len), '\0');
  std::rewind(f);
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  std::fclose(f);
  return out;
}

bool write_records_csv_file(const char* path,
                            std::span<const Record> records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  write_records_csv(f, records);
  std::fclose(f);
  return true;
}

std::vector<Record> parse_records_csv(std::string_view text) {
  std::vector<Record> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t len =
        (eol == std::string_view::npos ? text.size() : eol) - pos;
    const std::string_view line = text.substr(pos, len);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty() || line.starts_with("t_ps")) continue;
    // t_ps,dur_ps,point,span,qpn,tenant,node,arg,aux
    std::array<std::string_view, 9> field;
    std::size_t start = 0;
    bool shape_ok = true;
    for (std::size_t i = 0; i < field.size(); ++i) {
      if (i + 1 == field.size()) {
        field[i] = line.substr(start);
        break;
      }
      const std::size_t comma = line.find(',', start);
      if (comma == std::string_view::npos) {
        shape_ok = false;
        break;
      }
      field[i] = line.substr(start, comma - start);
      start = comma + 1;
    }
    if (!shape_ok) continue;
    Record r;
    std::uint32_t node = 0, aux = 0;
    const bool ok = parse_int(field[0], r.t) && parse_int(field[1], r.dur) &&
                    parse_int(field[3], r.span) &&
                    parse_int(field[4], r.qpn) &&
                    parse_int(field[5], r.tenant) &&
                    parse_int(field[6], node) && node <= 0xFF &&
                    parse_int(field[7], r.arg) &&
                    parse_int(field[8], aux) && aux <= 0xFFFF;
    r.point = point_from_name(field[2]);
    if (!ok || r.point == Point::kCount) continue;
    r.node = static_cast<std::uint8_t>(node);
    r.aux = static_cast<std::uint16_t>(aux);
    out.push_back(r);
  }
  return out;
}

std::vector<Record> parse_chrome_trace(std::string_view json) {
  std::vector<Record> out;
  static constexpr std::string_view kOpen = "{\"name\":\"";
  std::size_t pos = 0;
  while ((pos = json.find(kOpen, pos)) != std::string_view::npos) {
    // Every write_event object ends with the args sub-object: "...}}".
    const std::size_t close = json.find("}}", pos);
    if (close == std::string_view::npos) break;
    const std::string_view obj = json.substr(pos, close + 2 - pos);
    pos = close + 2;
    const std::size_t name_end = obj.find('"', kOpen.size());
    if (name_end == std::string_view::npos) continue;
    Record r;
    r.point = point_from_name(obj.substr(kOpen.size(), name_end - kOpen.size()));
    if (r.point == Point::kCount) continue;
    std::string_view v;
    std::uint32_t node = 0, aux = 0;
    bool ok = find_field(obj, "\"ts\":", v) && parse_us_to_ps(v, r.t) &&
              find_field(obj, "\"pid\":", v) && parse_int(v, node) &&
              node <= 0xFF && find_field(obj, "\"tid\":", v) &&
              parse_int(v, r.qpn) && find_field(obj, "\"span\":", v) &&
              parse_int(v, r.span) && find_field(obj, "\"tenant\":", v) &&
              parse_int(v, r.tenant) && find_field(obj, "\"arg\":", v) &&
              parse_int(v, r.arg) && find_field(obj, "\"aux\":", v) &&
              parse_int(v, aux) && aux <= 0xFFFF;
    if (find_field(obj, "\"dur\":", v)) ok = ok && parse_us_to_ps(v, r.dur);
    if (!ok) continue;
    r.node = static_cast<std::uint8_t>(node);
    r.aux = static_cast<std::uint16_t>(aux);
    out.push_back(r);
  }
  return out;
}

}  // namespace cord::trace
