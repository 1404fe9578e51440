#include "serial/record.h"

#include "serial/binio.h"

namespace xt {

Bytes StatsRecord::serialize() const {
  return BinWriter::exact([this](BinWriter& w) {
    w.str(source);
    w.u32(static_cast<std::uint32_t>(values.size()));
    for (const auto& [key, value] : values) {
      w.str(key);
      w.f64(value);
    }
  });
}

std::optional<StatsRecord> StatsRecord::deserialize(const Bytes& data) {
  BinReader r(data);
  StatsRecord out;
  auto source = r.str();
  if (!source) return std::nullopt;
  out.source = std::move(*source);
  auto n = r.u32();
  if (!n) return std::nullopt;
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto key = r.str();
    auto value = r.f64();
    if (!key || !value) return std::nullopt;
    out.values[std::move(*key)] = *value;
  }
  return out;
}

}  // namespace xt
