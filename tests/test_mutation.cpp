// Seeded mutation tests for decoders of untrusted bytes: the binary
// telemetry codec (decode_binary) and the distributed collector's records
// feed (decode_records). Every truncation, every single-byte flip, edits of
// each length prefix, and seeded random splices and multi-byte mutations
// of well-formed seeds must decode to an error or to a valid result — one
// that re-encodes and decodes back to itself — and each decode's heap
// allocation must stay proportional to its input, however large a count
// field claims to be. Deterministic: fixed seeds, no fuzzing engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "ccg/common/rng.hpp"
#include "ccg/dist/wire.hpp"
#include "ccg/obs/heap.hpp"
#include "ccg/store/format.hpp"
#include "ccg/telemetry/serialize.hpp"

namespace ccg {
namespace {

namespace prof = obs::prof;

/// Allowed heap traffic for one decode of `input_bytes`: a record decodes
/// from at least 11 bytes into 64, an IP from at least 1 byte into 4.
std::uint64_t allocation_bound(std::size_t input_bytes) {
  return 8 * static_cast<std::uint64_t>(input_bytes) + 4096;
}

std::vector<ConnectionSummary> seed_minute(std::int64_t minute, std::size_t n,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ConnectionSummary> records;
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(ConnectionSummary{
        .time = MinuteBucket(minute),
        .flow = FlowKey{.local_ip = IpAddr(0x0A000000 +
                                           static_cast<std::uint32_t>(rng.uniform(256))),
                        .local_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                        .remote_ip = IpAddr(static_cast<std::uint32_t>(rng.next())),
                        .remote_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                        .protocol = rng.chance(0.8) ? Protocol::kTcp : Protocol::kUdp},
        .counters = TrafficCounters{.packets_sent = rng.uniform(1 << 20),
                                    .packets_rcvd = rng.uniform(1 << 20),
                                    .bytes_sent = rng.next() % (1ull << 40),
                                    .bytes_rcvd = rng.next() % (1ull << 40)},
        .initiator = static_cast<Initiator>(rng.uniform(3))});
  }
  return records;
}

/// Heap bytes `run` allocated on this thread.
std::uint64_t allocated_by(const std::function<void()>& run) {
  prof::HeapSink sink;
  {
    prof::HeapSinkScope scope(&sink);
    run();
  }
  return sink.usage().bytes;
}

void expect_bounded(std::uint64_t allocated, std::size_t input_bytes) {
  if (prof::heap_tracking_available()) {
    EXPECT_LE(allocated, allocation_bound(input_bytes))
        << "decoding " << input_bytes << " bytes";
  }
}

/// Every mutation family over one well-formed encoding. `length_fields`
/// lists (offset, byte length) of varint length prefixes to rewrite.
/// `decode` decodes one input, checks its allocation and, when it
/// produced a result, that the result is valid.
void mutate_all(const std::vector<std::uint8_t>& seed,
                const std::vector<std::pair<std::size_t, std::size_t>>& length_fields,
                const std::function<void(std::span<const std::uint8_t>)>& decode,
                std::uint64_t rng_seed) {
  // Every truncation.
  for (std::size_t len = 0; len <= seed.size(); ++len) {
    decode(std::span(seed).first(len));
  }
  // Every byte, three flips each.
  for (std::size_t i = 0; i < seed.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> m = seed;
      m[i] ^= mask;
      decode(m);
    }
  }
  // Length prefixes rewritten to small, off-by-one and absurd counts.
  for (const auto& [offset, width] : length_fields) {
    for (const std::uint64_t value :
         {0ull, 1ull, 2ull, 255ull, 1ull << 20, 1ull << 32, 1ull << 62,
          ~0ull}) {
      std::vector<std::uint8_t> m(seed.begin(),
                                  seed.begin() + static_cast<std::ptrdiff_t>(offset));
      store::put_varint(m, value);
      m.insert(m.end(), seed.begin() + static_cast<std::ptrdiff_t>(offset + width),
               seed.end());
      decode(m);
    }
  }
  // Seeded splices of the seed with itself and random multi-byte edits.
  Rng rng(rng_seed);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> m;
    if (i % 2 == 0) {
      const std::size_t cut = rng.uniform(seed.size() + 1);
      const std::size_t from = rng.uniform(seed.size() + 1);
      m.assign(seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(cut));
      m.insert(m.end(), seed.begin() + static_cast<std::ptrdiff_t>(from), seed.end());
    } else {
      m = seed;
      const std::uint64_t edits = 1 + rng.uniform(8);
      for (std::uint64_t e = 0; e < edits && !m.empty(); ++e) {
        m[rng.uniform(m.size())] = static_cast<std::uint8_t>(rng.uniform(256));
      }
    }
    decode(m);
  }
}

/// Width in bytes of the varint at the start of `bytes`.
std::size_t varint_width(std::span<const std::uint8_t> bytes) {
  std::size_t n = 0;
  while (n < bytes.size() && (bytes[n] & 0x80u) != 0) ++n;
  return n + 1;
}

void decode_binary_checked(std::span<const std::uint8_t> input) {
  std::optional<std::vector<ConnectionSummary>> records;
  expect_bounded(allocated_by([&] { records = decode_binary(input); }),
                 input.size());
  if (!records) return;
  // Valid: at least 11 bytes per record, and a stable round trip.
  EXPECT_LE(records->size() * 11, input.size());
  const auto again = decode_binary(encode_binary(*records));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *records);
}

void decode_records_checked(std::span<const std::uint8_t> input) {
  std::optional<dist::RecordsFrame> frame;
  expect_bounded(allocated_by([&] { frame = dist::decode_records(input); }),
                 input.size());
  if (!frame) return;
  for (const ConnectionSummary& record : frame->records) {
    EXPECT_EQ(record.time.index(), frame->minute);
  }
  const auto again = dist::decode_records(dist::encode_records(*frame));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->minute, frame->minute);
  EXPECT_EQ(again->new_locals, frame->new_locals);
  EXPECT_EQ(again->records, frame->records);
}

TEST(DecoderMutation, BinaryTelemetryIsTotalAndBounded) {
  for (const std::size_t n : {0u, 1u, 40u}) {
    // A time-sorted batch spanning minutes, as encode_binary documents.
    std::vector<ConnectionSummary> batch;
    for (std::int64_t m = 0; m < 3; ++m) {
      const auto minute = seed_minute(m, n / 3 + (m == 0 ? n % 3 : 0),
                                      static_cast<std::uint64_t>(n * 7 + m));
      batch.insert(batch.end(), minute.begin(), minute.end());
    }
    const auto seed = encode_binary(batch);
    mutate_all(seed, {{0, varint_width(seed)}}, decode_binary_checked, 100 + n);
  }
}

TEST(DecoderMutation, RecordsFrameIsTotalAndBounded) {
  for (const std::size_t n : {0u, 1u, 30u}) {
    dist::RecordsFrame frame;
    frame.minute = 42;
    frame.new_locals = {IpAddr(0x0A000001), IpAddr(0x0A0000FF), IpAddr(7)};
    frame.records = seed_minute(42, n, 200 + n);
    const auto seed = dist::encode_records(frame);
    // Length prefixes: the local count after type and minute, and the
    // record count that opens the encode_binary body.
    const std::size_t locals_at = 1 + varint_width(std::span(seed).subspan(1));
    std::size_t body_at = locals_at + varint_width(std::span(seed).subspan(locals_at));
    for (std::size_t i = 0; i < frame.new_locals.size(); ++i) {
      body_at += varint_width(std::span(seed).subspan(body_at));
    }
    mutate_all(seed,
               {{locals_at, varint_width(std::span(seed).subspan(locals_at))},
                {body_at, varint_width(std::span(seed).subspan(body_at))}},
               decode_records_checked, 300 + n);
  }
}

TEST(DecoderMutation, HugeClaimedCountAllocatesNothingLarge) {
  // The count field claims 2^40 records over a 14-byte input: rejected
  // before any reservation (the old bound was the buffer size, letting a
  // 256 MiB wire frame reserve 16 GB of records).
  std::vector<std::uint8_t> input;
  store::put_varint(input, 1ull << 40);
  input.resize(input.size() + 8, 0x01);
  bool decoded = true;
  const std::uint64_t allocated =
      allocated_by([&] { decoded = decode_binary(input).has_value(); });
  EXPECT_FALSE(decoded);
  if (prof::heap_tracking_available()) {
    EXPECT_EQ(allocated, 0u);
  }

  // A count the bytes could hold but that exceeds bytes / 11 is rejected
  // without reserving too: 100 one-byte "records" cannot be 11 bytes each.
  std::vector<std::uint8_t> short_records;
  store::put_varint(short_records, 100);
  short_records.resize(short_records.size() + 100, 0x01);
  EXPECT_FALSE(decode_binary(short_records).has_value());
}

}  // namespace
}  // namespace ccg
