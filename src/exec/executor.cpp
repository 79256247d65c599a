#include "agc/exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "agc/graph/spec.hpp"

namespace agc::exec {

std::shared_ptr<runtime::RoundExecutor> make_executor(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads == 1) return std::make_shared<runtime::SequentialExecutor>();
  return std::make_shared<ParallelExecutor>(threads);
}

std::size_t default_threads() {
  const char* env = std::getenv("AGC_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const auto v = graph::parse_u64(env);
  if (!v) {
    throw std::invalid_argument(
        std::string("AGC_THREADS needs an unsigned integer, got '") + env + "'");
  }
  if (*v == 0) return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(*v);
}

}  // namespace agc::exec
