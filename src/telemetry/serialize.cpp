#include "ccg/telemetry/serialize.hpp"

#include <charconv>
#include <string>

namespace ccg {

namespace {

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

constexpr std::size_t kCsvFields = 11;

/// Splits one row into exactly kCsvFields fields with the semantics of
/// parse_csv_line (RFC 4180: a quote toggles quoting anywhere in a field,
/// "" inside quotes is a literal quote, \r outside quotes is dropped).
/// A row without '"' and without '\r' (a trailing one aside) — every row
/// an exporter writes — splits into views of `line` itself; any other row is
/// unescaped into a reused per-thread buffer, so `fields` view into it
/// until the next call on this thread. False when the row does not have 11
/// fields.
bool split_row(std::string_view line, std::string_view (&fields)[kCsvFields]) {
  std::string_view text = line;
  if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
  // Two memchr scans; find_first_of would test the set per character.
  if (text.find('"') == std::string_view::npos &&
      text.find('\r') == std::string_view::npos) {
    std::size_t n = 0;
    for (;;) {
      const std::size_t comma = text.find(',');
      if (comma == std::string_view::npos) break;
      if (n + 1 == kCsvFields) return false;  // a twelfth field
      fields[n++] = text.substr(0, comma);
      text.remove_prefix(comma + 1);
    }
    fields[n++] = text;
    return n == kCsvFields;
  }

  thread_local std::string unescaped;
  unescaped.clear();
  std::size_t ends[kCsvFields];
  std::size_t n = 0;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c != '"') {
        unescaped.push_back(c);
      } else if (i + 1 < line.size() && line[i + 1] == '"') {
        unescaped.push_back('"');  // escaped quote
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      if (n + 1 == kCsvFields) return false;  // a twelfth field
      ends[n++] = unescaped.size();
    } else if (c != '\r') {
      unescaped.push_back(c);
    }
  }
  ends[n++] = unescaped.size();
  if (n != kCsvFields) return false;
  std::size_t begin = 0;
  for (std::size_t f = 0; f < kCsvFields; ++f) {
    fields[f] = std::string_view(unescaped).substr(begin, ends[f] - begin);
    begin = ends[f];
  }
  return true;
}

/// Longest encoded record: a 10-byte time delta, two 5-byte IPs, two
/// 3-byte ports, the protocol, four 10-byte counters and the initiator.
constexpr std::size_t kMaxRecordBytes = 10 + 5 + 3 + 5 + 3 + 1 + 4 * 10 + 1;
/// Shortest encoded record: eleven one-byte varints.
constexpr std::size_t kMinRecordBytes = 11;
constexpr std::size_t kMaxVarintBytes = 10;

std::uint8_t* write_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// False when the varint is truncated or longer than ten bytes.
bool read_varint(const std::uint8_t*& p, const std::uint8_t* end,
                 std::uint64_t& out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    v |= std::uint64_t{byte & 0x7Fu} << shift;
    if ((byte & 0x80u) == 0) {
      out = v;
      return true;
    }
    shift += 7;
    if (shift > 63) return false;  // overlong encoding
  }
  return false;  // truncated
}

}  // namespace

std::string csv_header() {
  return "time_minute,protocol,local_ip,local_port,remote_ip,remote_port,"
         "packets_sent,packets_rcvd,bytes_sent,bytes_rcvd,initiator";
}

std::string to_csv(const ConnectionSummary& rec) {
  std::string out;
  out.reserve(96);
  out += std::to_string(rec.time.index());
  out.push_back(',');
  out += std::to_string(static_cast<int>(rec.flow.protocol));
  out.push_back(',');
  out += rec.flow.local_ip.to_string();
  out.push_back(',');
  out += std::to_string(rec.flow.local_port);
  out.push_back(',');
  out += rec.flow.remote_ip.to_string();
  out.push_back(',');
  out += std::to_string(rec.flow.remote_port);
  out.push_back(',');
  out += std::to_string(rec.counters.packets_sent);
  out.push_back(',');
  out += std::to_string(rec.counters.packets_rcvd);
  out.push_back(',');
  out += std::to_string(rec.counters.bytes_sent);
  out.push_back(',');
  out += std::to_string(rec.counters.bytes_rcvd);
  out.push_back(',');
  out += std::to_string(static_cast<int>(rec.initiator));
  return out;
}

std::optional<ConnectionSummary> from_csv(std::string_view line) {
  std::string_view fields[kCsvFields];
  if (!split_row(line, fields)) return std::nullopt;

  // time may be negative (pre-epoch windows in tests)
  std::int64_t t = 0;
  {
    auto [ptr, ec] = std::from_chars(fields[0].data(),
                                     fields[0].data() + fields[0].size(), t);
    if (ec != std::errc{} || ptr != fields[0].data() + fields[0].size()) {
      return std::nullopt;
    }
  }
  auto proto = parse_u64(fields[1]);
  auto local_ip = IpAddr::parse(fields[2]);
  auto local_port = parse_u64(fields[3]);
  auto remote_ip = IpAddr::parse(fields[4]);
  auto remote_port = parse_u64(fields[5]);
  auto ps = parse_u64(fields[6]);
  auto pr = parse_u64(fields[7]);
  auto bs = parse_u64(fields[8]);
  auto br = parse_u64(fields[9]);
  auto init = parse_u64(fields[10]);
  if (!proto || !local_ip || !local_port || !remote_ip || !remote_port ||
      !ps || !pr || !bs || !br || !init) {
    return std::nullopt;
  }
  if (*local_port > 0xFFFF || *remote_port > 0xFFFF) return std::nullopt;
  if (*proto != 1 && *proto != 6 && *proto != 17) return std::nullopt;
  if (*init > 2) return std::nullopt;

  return ConnectionSummary{
      .time = MinuteBucket(t),
      .flow = FlowKey{.local_ip = *local_ip,
                      .local_port = static_cast<std::uint16_t>(*local_port),
                      .remote_ip = *remote_ip,
                      .remote_port = static_cast<std::uint16_t>(*remote_port),
                      .protocol = static_cast<Protocol>(*proto)},
      .counters = TrafficCounters{.packets_sent = *ps,
                                  .packets_rcvd = *pr,
                                  .bytes_sent = *bs,
                                  .bytes_rcvd = *br},
      .initiator = static_cast<Initiator>(*init)};
}

void write_csv(std::ostream& out, const std::vector<ConnectionSummary>& batch) {
  out << csv_header() << '\n';
  for (const auto& rec : batch) out << to_csv(rec) << '\n';
}

std::vector<ConnectionSummary> read_csv(std::istream& in, std::size_t* dropped) {
  std::vector<ConnectionSummary> out;
  std::size_t bad = 0;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first && line.rfind("time_minute", 0) == 0) {
      first = false;
      continue;  // header
    }
    first = false;
    if (line.empty()) continue;
    if (auto rec = from_csv(line)) {
      out.push_back(*rec);
    } else {
      ++bad;
    }
  }
  if (dropped != nullptr) *dropped = bad;
  return out;
}

std::size_t max_binary_size(std::size_t count) {
  return kMaxVarintBytes + count * kMaxRecordBytes;
}

std::uint8_t* encode_binary_to(std::span<const ConnectionSummary> batch,
                               std::uint8_t* out) {
  out = write_varint(out, batch.size());
  std::int64_t prev_time = 0;
  for (const auto& rec : batch) {
    // Zig-zag delta on time: batches are near-sorted by minute.
    const std::int64_t dt = rec.time.index() - prev_time;
    prev_time = rec.time.index();
    out = write_varint(out, (static_cast<std::uint64_t>(dt) << 1) ^
                                static_cast<std::uint64_t>(dt >> 63));
    out = write_varint(out, rec.flow.local_ip.bits());
    out = write_varint(out, rec.flow.local_port);
    out = write_varint(out, rec.flow.remote_ip.bits());
    out = write_varint(out, rec.flow.remote_port);
    out = write_varint(out, static_cast<std::uint64_t>(rec.flow.protocol));
    out = write_varint(out, rec.counters.packets_sent);
    out = write_varint(out, rec.counters.packets_rcvd);
    out = write_varint(out, rec.counters.bytes_sent);
    out = write_varint(out, rec.counters.bytes_rcvd);
    out = write_varint(out, static_cast<std::uint64_t>(rec.initiator));
  }
  return out;
}

std::vector<std::uint8_t> encode_binary(std::span<const ConnectionSummary> batch) {
  std::vector<std::uint8_t> out(max_binary_size(batch.size()));
  out.resize(static_cast<std::size_t>(encode_binary_to(batch, out.data()) -
                                      out.data()));
  return out;
}

std::optional<std::vector<ConnectionSummary>> decode_binary(
    std::span<const std::uint8_t> buffer) {
  const std::uint8_t* p = buffer.data();
  const std::uint8_t* const end = p + buffer.size();
  std::uint64_t count = 0;
  if (!read_varint(p, end, count)) return std::nullopt;
  // A corrupt count must not become an allocation request: every record
  // takes at least kMinRecordBytes, so the bytes left bound the count.
  if (count > static_cast<std::uint64_t>(end - p) / kMinRecordBytes) {
    return std::nullopt;
  }

  std::vector<ConnectionSummary> out;
  out.reserve(static_cast<std::size_t>(count));
  std::int64_t prev_time = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t raw[11];
    for (auto& field : raw) {
      if (!read_varint(p, end, field)) return std::nullopt;
    }
    const std::int64_t dt =
        static_cast<std::int64_t>(raw[0] >> 1) ^ -static_cast<std::int64_t>(raw[0] & 1);
    prev_time += dt;
    if (raw[1] > 0xFFFFFFFFu || raw[3] > 0xFFFFFFFFu) return std::nullopt;
    if (raw[2] > 0xFFFF || raw[4] > 0xFFFF) return std::nullopt;
    if (raw[5] != 1 && raw[5] != 6 && raw[5] != 17) return std::nullopt;
    if (raw[10] > 2) return std::nullopt;
    out.push_back(ConnectionSummary{
        .time = MinuteBucket(prev_time),
        .flow = FlowKey{.local_ip = IpAddr(static_cast<std::uint32_t>(raw[1])),
                        .local_port = static_cast<std::uint16_t>(raw[2]),
                        .remote_ip = IpAddr(static_cast<std::uint32_t>(raw[3])),
                        .remote_port = static_cast<std::uint16_t>(raw[4]),
                        .protocol = static_cast<Protocol>(raw[5])},
        .counters = TrafficCounters{.packets_sent = raw[6],
                                    .packets_rcvd = raw[7],
                                    .bytes_sent = raw[8],
                                    .bytes_rcvd = raw[9]},
        .initiator = static_cast<Initiator>(raw[10])});
  }
  if (p != end) return std::nullopt;  // trailing garbage
  return out;
}

}  // namespace ccg
