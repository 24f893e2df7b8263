// Wire codec for readout frames: the unit of data a stack's readout
// controller ships off-die.  One frame carries one full scan (every
// SiteReading of one StackMonitor::sample_all) plus enough header to route,
// order and timestamp it at the collector:
//
//   [magic u32] [version u16] [flags u16] [stack_id u32] [site_count u32]
//   [sequence u64] [sim_time f64] [capture_ns u64]
//   site_count x { site u32, die u32, x f64, y f64,
//                  sensed f64, truth f64, energy f64, degraded u8,
//                  health u8 }
//   [crc32 u32]
//
// Everything is little-endian on the wire regardless of host order; doubles
// travel as their IEEE-754 bit patterns.  The trailing CRC-32 (IEEE
// polynomial, as in Ethernet/zlib) covers every preceding byte, so
// truncation, bit rot and version skew are all detected at decode time
// instead of corrupting fleet statistics.  `truth` is simulation-only
// ground truth riding along for error accounting; real silicon would omit
// it (a future wire version).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/stack_monitor.hpp"
#include "ptsim/units.hpp"
#include "telemetry/codec_util.hpp"  // crc32 + varint/zigzag primitives

namespace tsvpt::telemetry {

/// Wire-format revision this build encodes and the only one it decodes.
/// v2 added the per-site health byte (core::HealthState as judged by the
/// producer-side HealthSupervisor), so the collector can track quarantine
/// transitions without re-deriving them.
inline constexpr std::uint16_t kWireVersion = 2;
/// "TSVT" little-endian.
inline constexpr std::uint32_t kWireMagic = 0x54565354u;
/// Decode-time sanity bound: no plausible stack carries more sites.
inline constexpr std::uint32_t kMaxSiteCount = 1u << 16;

// The fixed frame header.  The `layout:` / `field:` comments are wire-layout
// lint directives (as in net/framing.hpp): tsvpt_lint checks the fields
// start at 0, stay contiguous and sum to the header size.  Tools that
// re-stamp a pre-encoded frame in place poke these offsets, then refresh
// the trailing CRC.
// layout: tsvt_header size=40
inline constexpr std::size_t kFrameMagicOffset = 0;       // field: magic size=4
inline constexpr std::size_t kFrameVersionOffset = 4;     // field: version size=2
inline constexpr std::size_t kFrameFlagsOffset = 6;       // field: flags size=2
inline constexpr std::size_t kFrameStackIdOffset = 8;     // field: stack_id size=4
inline constexpr std::size_t kFrameSiteCountOffset = 12;  // field: site_count size=4
inline constexpr std::size_t kFrameSequenceOffset = 16;   // field: sequence size=8
inline constexpr std::size_t kFrameSimTimeOffset = 24;    // field: sim_time size=8
inline constexpr std::size_t kFrameCaptureNsOffset = 32;  // field: capture_ns size=8
inline constexpr std::size_t kFrameHeaderSize = 40;

/// One scan of one stack, as transported on the wire.
struct Frame {
  std::uint32_t stack_id = 0;
  /// Per-stack monotonically increasing frame number (gap = lost frame).
  std::uint64_t sequence = 0;
  /// Simulated time of the scan.
  Second sim_time{0.0};
  /// Producer-side std::chrono::steady_clock stamp, for end-to-end latency.
  std::uint64_t capture_ns = 0;
  std::vector<core::StackMonitor::SiteReading> readings;

  [[nodiscard]] bool operator==(const Frame& other) const;
};

/// Serialize to the wire layout above (header + payload + CRC).
[[nodiscard]] std::vector<std::uint8_t> encode(const Frame& frame);

enum class DecodeStatus {
  kOk,
  /// Buffer shorter than the layout promises (or than a header at all).
  kTruncated,
  kBadMagic,
  /// Header version this build does not speak.
  kUnsupportedVersion,
  /// Site count exceeds kMaxSiteCount (corrupt or hostile length field).
  kBadSiteCount,
  /// A reading's site_index is outside [0, site_count).  Frames carry one
  /// full scan, so indexes are dense; consumers rely on this to index
  /// scan-shaped arrays safely.
  kBadSiteIndex,
  /// A reading's health byte names no core::HealthState.
  kBadHealthState,
  kBadCrc,
};

[[nodiscard]] const char* to_string(DecodeStatus status);

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kTruncated;
  Frame frame;  // valid only when status == kOk

  [[nodiscard]] bool ok() const { return status == DecodeStatus::kOk; }
};

/// Validate and deserialize one frame.  Never throws: every malformed input
/// maps to a DecodeStatus (fuzz-tested).
[[nodiscard]] DecodeResult decode(const std::uint8_t* data, std::size_t size);
[[nodiscard]] DecodeResult decode(const std::vector<std::uint8_t>& buffer);

/// Read just the stack id from an encoded frame without a full decode —
/// what drop-oldest accounting needs when a ring evicts a frame (attributing
/// the loss is O(1); decoding the victim would cost more than producing it).
/// Empty when the buffer cannot possibly hold a valid header.
[[nodiscard]] std::optional<std::uint32_t> peek_stack_id(
    const std::vector<std::uint8_t>& buffer);

/// Encoded size of a frame carrying `site_count` readings.
[[nodiscard]] std::size_t encoded_size(std::size_t site_count);

}  // namespace tsvpt::telemetry
