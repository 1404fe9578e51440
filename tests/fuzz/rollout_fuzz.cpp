// Fuzz target for RolloutBatch::deserialize, the decoder of the largest
// untrusted bytes a learner reads: every rollout body a remote explorer
// sends (paper Fig. 2, red arrows). An input is one body.
//
// A batch that decodes must serialize again to a body of the input's length,
// allocated at exactly its size (capacity() == size()), and that body must
// decode to the same batch. The second decode is compared through its own
// serialization, bit for bit, so a NaN reward still compares equal to
// itself. (The lengths match but not always the bytes: a done byte other
// than 0 decodes as true and encodes as 1.)
//
// test_rollout links this function and replays tests/fuzz/corpus/rollout
// plus seeded mutations of it under the sanitizers; a clang build with
// -DXT_FUZZ=ON builds it as the libFuzzer binary fuzz_rollout.

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "algo/rollout.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const xt::Bytes body(data, data + size);
  const auto batch = xt::RolloutBatch::deserialize(body);
  if (!batch) return 0;
  const xt::Bytes again = batch->serialize();
  if (again.size() != body.size() || again.capacity() != again.size()) std::abort();
  const auto round_trip = xt::RolloutBatch::deserialize(again);
  if (!round_trip || round_trip->serialize() != again) std::abort();
  return 0;
}
