#include "parallel/spawn.hpp"

#include <exception>
#include <string>

#include "util/error.hpp"

namespace pcmax {

void spawn_threads(std::vector<std::thread>& threads, unsigned first,
                   unsigned last, const char* what,
                   const std::function<void(unsigned)>& body,
                   const std::function<void()>& stop) {
  const std::size_t base = threads.size();
  try {
    threads.reserve(base + last - first);
    for (unsigned index = first; index < last; ++index) {
      threads.emplace_back(body, index);
    }
  } catch (const std::exception& error) {
    const auto started = static_cast<unsigned>(threads.size() - base);
    stop();
    for (std::size_t i = base; i < threads.size(); ++i) threads[i].join();
    threads.resize(base);
    throw ResourceLimitError(resource_limit_message(
        std::string(what) + " threads (spawn failed: " + error.what() + ")",
        first + started, last));
  }
}

}  // namespace pcmax
