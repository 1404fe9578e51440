#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"

namespace xt {

/// Checkpointing of DNN parameters (paper Section 4.2: the Algorithm class
/// saves checkpoints periodically so DNN parameters can be restored after a
/// failure, "sufficient fault tolerance without significant overheads").
///
/// A checkpoint file is a small self-describing container:
///   magic "XTCP" | version u32 | weights_version u32 | steps u64 | payload
/// where the payload is the learner's weight blob with a u64 length prefix.
/// Writes are atomic (temp file + rename), so a crash mid-write never
/// corrupts the latest good checkpoint.
class Checkpointer {
 public:
  /// `path` is the checkpoint file; `every_versions` is how many weight
  /// versions between saves (paper: "every few training sessions").
  Checkpointer(std::string path, std::uint32_t every_versions = 100);

  /// Save if `weights_version` has advanced enough since the last save.
  /// Returns true if a checkpoint was written.
  bool maybe_save(const Bytes& weights, std::uint32_t weights_version,
                  std::uint64_t steps_consumed);

  /// Unconditional save.
  bool save(const Bytes& weights, std::uint32_t weights_version,
            std::uint64_t steps_consumed);

  struct Snapshot {
    Bytes weights;
    std::uint32_t weights_version = 0;
    std::uint64_t steps_consumed = 0;
  };

  /// Load the checkpoint at `path`; nullopt if missing or corrupt.
  [[nodiscard]] static std::optional<Snapshot> load(const std::string& path);

  /// The bytes of a checkpoint file.
  [[nodiscard]] static Bytes encode(const Bytes& weights, std::uint32_t weights_version,
                                    std::uint64_t steps_consumed);
  /// Reads a checkpoint file's bytes; nullopt, with the reason in `error`
  /// when one is given, unless they are exactly one checkpoint. The
  /// weights are returned as stored, unparsed.
  [[nodiscard]] static std::optional<Snapshot> decode(const Bytes& data,
                                                      std::string* error = nullptr);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint32_t saves() const { return saves_; }

 private:
  const std::string path_;
  const std::uint32_t every_versions_;
  std::uint32_t last_saved_version_ = 0;
  std::uint32_t saves_ = 0;
};

}  // namespace xt
