#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace h3cdn::util {

void parallel_for(std::size_t n, std::size_t jobs, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs == 0) jobs = default_jobs();
  jobs = std::min(jobs, n);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) workers.emplace_back(worker);
  for (std::thread& w : workers) w.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

std::size_t default_jobs() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace h3cdn::util
