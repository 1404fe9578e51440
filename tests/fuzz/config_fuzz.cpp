// Fuzz target for parse_launch_config, the reader of the launch
// configuration file xt_run is given (paper §3.2.2). An input is one file's
// contents.
//
// Parsing must not crash or trip a sanitizer, parsing the same bytes twice
// must give the same verdict and the same message, and a rejection must
// name its reason.
//
// test_config_file links this function and replays tests/fuzz/corpus/config
// plus seeded mutations of it under the sanitizers; a clang build with
// -DXT_FUZZ=ON builds it as the libFuzzer binary fuzz_config.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "framework/config_file.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string contents(reinterpret_cast<const char*>(data), size);
  std::string first_error;
  std::string second_error;
  const bool first = xt::parse_launch_config(contents, &first_error).has_value();
  const bool second = xt::parse_launch_config(contents, &second_error).has_value();
  if (first != second || first_error != second_error) std::abort();
  if (!first && first_error.empty()) std::abort();
  return 0;
}
