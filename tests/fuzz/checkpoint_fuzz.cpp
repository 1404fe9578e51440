// Fuzz target for Checkpointer::decode, the reader of the checkpoint file a
// restarted learner restores its weights from (paper §4.2). An input is one
// file's bytes.
//
// A snapshot that decodes must encode again to the input bytes, in a buffer
// of exactly their size, and its weights, an Mlp weight blob, go through
// nn::Mlp::deserialize (which may reject them) without a crash.
//
// test_checkpoint links this function and replays tests/fuzz/corpus/checkpoint
// plus seeded mutations of it under the sanitizers; a clang build with
// -DXT_FUZZ=ON builds it as the libFuzzer binary fuzz_checkpoint.

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "framework/checkpoint.h"
#include "nn/mlp.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const xt::Bytes file(data, data + size);
  const auto snapshot = xt::Checkpointer::decode(file);
  if (!snapshot) return 0;
  const xt::Bytes again = xt::Checkpointer::encode(
      snapshot->weights, snapshot->weights_version, snapshot->steps_consumed);
  if (again != file || again.capacity() != again.size()) std::abort();
  (void)xt::nn::Mlp::deserialize(snapshot->weights);
  return 0;
}
