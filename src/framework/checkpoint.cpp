#include "framework/checkpoint.h"

#include <cstdio>

#include "common/log.h"
#include "serial/binio.h"

namespace xt {
namespace {
constexpr std::uint32_t kMagic = 0x50435458;  // "XTCP" little-endian
constexpr std::uint32_t kFormatVersion = 1;
/// magic + format + weights_version + steps + payload length prefix: any
/// readable checkpoint is at least this long, so shorter files (including
/// the magic-only stubs an interrupted v0 writer could leave behind) are
/// rejected before parsing.
constexpr std::size_t kMinFileBytes = 4 + 4 + 4 + 8 + 8;
}  // namespace

Checkpointer::Checkpointer(std::string path, std::uint32_t every_versions)
    : path_(std::move(path)), every_versions_(every_versions) {}

bool Checkpointer::maybe_save(const Bytes& weights, std::uint32_t weights_version,
                              std::uint64_t steps_consumed) {
  if (weights_version < last_saved_version_ + every_versions_) return false;
  return save(weights, weights_version, steps_consumed);
}

Bytes Checkpointer::encode(const Bytes& weights, std::uint32_t weights_version,
                           std::uint64_t steps_consumed) {
  return BinWriter::exact([&](BinWriter& w) {
    w.u32(kMagic);
    w.u32(kFormatVersion);
    w.u32(weights_version);
    w.u64(steps_consumed);
    w.bytes(weights);
  });
}

bool Checkpointer::save(const Bytes& weights, std::uint32_t weights_version,
                        std::uint64_t steps_consumed) {
  const Bytes data = encode(weights, weights_version, steps_consumed);
  const std::string tmp = path_ + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    XT_LOG_ERROR << "checkpoint: cannot open " << tmp;
    return false;
  }
  const bool wrote = std::fwrite(data.data(), 1, data.size(), file) == data.size();
  std::fclose(file);
  if (!wrote || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    XT_LOG_ERROR << "checkpoint: failed writing " << path_;
    std::remove(tmp.c_str());
    return false;
  }
  last_saved_version_ = weights_version;
  ++saves_;
  return true;
}

std::optional<Checkpointer::Snapshot> Checkpointer::load(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  Bytes data;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  if (size > 0) {
    data.resize(static_cast<std::size_t>(size));
    if (std::fread(data.data(), 1, data.size(), file) != data.size()) {
      std::fclose(file);
      return std::nullopt;
    }
  }
  std::fclose(file);
  std::string error;
  auto snapshot = decode(data, &error);
  if (!snapshot) XT_LOG_WARN << "checkpoint: " << path << " " << error << ", rejecting";
  return snapshot;
}

std::optional<Checkpointer::Snapshot> Checkpointer::decode(const Bytes& data,
                                                           std::string* error) {
  const auto reject = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  if (data.size() < kMinFileBytes) {
    return reject("is too small (" + std::to_string(data.size()) + " bytes)");
  }
  BinReader r(data);  // kMinFileBytes holds every fixed field
  if (r.u32() != kMagic) return reject("has no checkpoint magic");
  if (r.u32() != kFormatVersion) return reject("has an unknown format");
  const std::uint32_t version = *r.u32();
  const std::uint64_t steps = *r.u64();
  auto weights = r.bytes();
  if (!weights) return reject("has a payload past its end");
  // The payload length prefix must account for the file exactly: a reader
  // with leftover bytes means the length was short (truncated rewrite,
  // concatenated garbage) and the weights cannot be trusted.
  if (!r.exhausted()) {
    return reject("has " + std::to_string(r.remaining()) + " trailing byte(s)");
  }
  return Snapshot{std::move(*weights), version, steps};
}

}  // namespace xt
