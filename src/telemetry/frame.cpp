#include "telemetry/frame.hpp"

#include <bit>
#include <cstring>

#include "core/health_supervisor.hpp"
#include "telemetry/codec_util.hpp"

namespace tsvpt::telemetry {
namespace {

// Per-site record and trailing CRC (the header layout is in frame.hpp).
constexpr std::size_t kSiteSize = 4 + 4 + 8 * 5 + 1 + 1;
constexpr std::size_t kCrcSize = 4;

}  // namespace

bool Frame::operator==(const Frame& other) const {
  if (stack_id != other.stack_id || sequence != other.sequence ||
      sim_time.value() != other.sim_time.value() ||
      capture_ns != other.capture_ns ||
      readings.size() != other.readings.size()) {
    return false;
  }
  for (std::size_t i = 0; i < readings.size(); ++i) {
    const auto& a = readings[i];
    const auto& b = other.readings[i];
    if (a.site_index != b.site_index || a.die != b.die ||
        a.location.x != b.location.x || a.location.y != b.location.y ||
        a.sensed.value() != b.sensed.value() ||
        a.truth.value() != b.truth.value() ||
        a.energy.value() != b.energy.value() || a.degraded != b.degraded ||
        a.health != b.health) {
      return false;
    }
  }
  return true;
}

std::size_t encoded_size(std::size_t site_count) {
  return kFrameHeaderSize + site_count * kSiteSize + kCrcSize;
}

std::vector<std::uint8_t> encode(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(frame.readings.size()));
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, 0);  // flags, reserved
  put_u32(out, frame.stack_id);
  put_u32(out, static_cast<std::uint32_t>(frame.readings.size()));
  put_u64(out, frame.sequence);
  put_f64(out, frame.sim_time.value());
  put_u64(out, frame.capture_ns);
  for (const auto& r : frame.readings) {
    put_u32(out, static_cast<std::uint32_t>(r.site_index));
    put_u32(out, static_cast<std::uint32_t>(r.die));
    put_f64(out, r.location.x);
    put_f64(out, r.location.y);
    put_f64(out, r.sensed.value());
    put_f64(out, r.truth.value());
    put_f64(out, r.energy.value());
    put_u8(out, r.degraded ? 1 : 0);
    put_u8(out, r.health);
  }
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

DecodeResult decode(const std::uint8_t* data, std::size_t size) {
  DecodeResult result;
  if (data == nullptr || size < kFrameHeaderSize + kCrcSize) {
    result.status = DecodeStatus::kTruncated;
    return result;
  }
  ByteCursor r{data, size};
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t flags = 0;
  if (!r.u32(magic) || magic != kWireMagic) {
    result.status = DecodeStatus::kBadMagic;
    return result;
  }
  if (!r.u16(version) || version != kWireVersion) {
    result.status = DecodeStatus::kUnsupportedVersion;
    return result;
  }
  (void)r.u16(flags);  // reserved
  Frame frame;
  std::uint32_t site_count = 0;
  (void)r.u32(frame.stack_id);
  (void)r.u32(site_count);
  if (site_count > kMaxSiteCount) {
    result.status = DecodeStatus::kBadSiteCount;
    return result;
  }
  if (size != encoded_size(site_count)) {
    result.status = DecodeStatus::kTruncated;
    return result;
  }
  if (crc32(data, size - kCrcSize) != get_u32(data + size - kCrcSize)) {
    result.status = DecodeStatus::kBadCrc;
    return result;
  }
  (void)r.u64(frame.sequence);
  double sim_time = 0.0;
  (void)r.f64(sim_time);
  frame.sim_time = Second{sim_time};
  (void)r.u64(frame.capture_ns);
  frame.readings.reserve(site_count);
  for (std::uint32_t i = 0; i < site_count; ++i) {
    core::StackMonitor::SiteReading reading;
    std::uint32_t site_index = 0;
    std::uint32_t die = 0;
    (void)r.u32(site_index);
    reading.site_index = site_index;
    if (reading.site_index >= site_count) {
      result.status = DecodeStatus::kBadSiteIndex;
      return result;
    }
    (void)r.u32(die);
    reading.die = die;
    double x = 0.0;
    double y = 0.0;
    double sensed = 0.0;
    double truth = 0.0;
    double energy = 0.0;
    (void)r.f64(x);
    (void)r.f64(y);
    (void)r.f64(sensed);
    (void)r.f64(truth);
    (void)r.f64(energy);
    reading.location = {x, y};
    reading.sensed = Celsius{sensed};
    reading.truth = Celsius{truth};
    reading.energy = Joule{energy};
    std::uint8_t degraded = 0;
    (void)r.u8(degraded);
    reading.degraded = degraded != 0;
    (void)r.u8(reading.health);
    if (reading.health >= core::kHealthStateCount) {
      result.status = DecodeStatus::kBadHealthState;
      return result;
    }
    frame.readings.push_back(reading);
  }
  result.status = DecodeStatus::kOk;
  result.frame = std::move(frame);
  return result;
}

DecodeResult decode(const std::vector<std::uint8_t>& buffer) {
  return decode(buffer.data(), buffer.size());
}

std::optional<std::uint32_t> peek_stack_id(
    const std::vector<std::uint8_t>& buffer) {
  if (buffer.size() < kFrameHeaderSize) return std::nullopt;
  return get_u32(buffer.data() + kFrameStackIdOffset);
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kUnsupportedVersion: return "unsupported-version";
    case DecodeStatus::kBadSiteCount: return "bad-site-count";
    case DecodeStatus::kBadSiteIndex: return "bad-site-index";
    case DecodeStatus::kBadHealthState: return "bad-health-state";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "unknown";
}

}  // namespace tsvpt::telemetry
