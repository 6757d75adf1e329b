// Serialization of connection summaries.
//
// Two encodings:
//  * CSV — the shape customers see in NSG/VPC flow-log exports; good for
//    interop with external tooling.
//  * A compact binary framing — what the agent would actually ship to the
//    cloud store; its size drives the $/GB COGS model.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ccg/telemetry/record.hpp"

namespace ccg {

/// Header row matching paper Table 2 column order.
std::string csv_header();

/// One record as a CSV row (no trailing newline).
std::string to_csv(const ConnectionSummary& rec);

/// Parses a row produced by to_csv. Returns nullopt on malformed input.
std::optional<ConnectionSummary> from_csv(std::string_view line);

/// Writes a batch as CSV with header.
void write_csv(std::ostream& out, const std::vector<ConnectionSummary>& batch);

/// Reads a whole CSV stream (header optional); malformed rows are skipped
/// and counted in *dropped if provided.
std::vector<ConnectionSummary> read_csv(std::istream& in, std::size_t* dropped = nullptr);

/// Compact binary encoding: varint-delta framing. Records are grouped by
/// minute; within a batch IPs/ports compress well because flows from one
/// host share the local IP.
std::vector<std::uint8_t> encode_binary(std::span<const ConnectionSummary> batch);

/// Most bytes encode_binary can produce for `count` records.
std::size_t max_binary_size(std::size_t count);

/// encode_binary's bytes written to `out`, which must have room for
/// max_binary_size(batch.size()) bytes; returns one past the last byte
/// written. Lets a caller frame the records without an extra copy.
std::uint8_t* encode_binary_to(std::span<const ConnectionSummary> batch,
                               std::uint8_t* out);

/// Decodes a buffer produced by encode_binary. Returns nullopt if the
/// buffer is truncated or corrupt. The record count is checked against
/// the bytes that follow it before anything is reserved, so memory stays
/// proportional to the input whatever the count field claims.
std::optional<std::vector<ConnectionSummary>> decode_binary(
    std::span<const std::uint8_t> buffer);

}  // namespace ccg
