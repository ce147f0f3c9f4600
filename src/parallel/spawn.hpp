// Starting a group of std::threads without leaking joinable threads.
//
// A std::thread constructor throws std::system_error when the OS refuses a
// thread (address-space or process limits). Spawning in a loop then leaves
// the threads already started joinable, and destroying a joinable thread
// calls std::terminate. spawn_threads turns that into a typed, recoverable
// ResourceLimitError after every started thread has been stopped and joined.
#pragma once

#include <functional>
#include <thread>
#include <vector>

namespace pcmax {

/// Appends one thread per index in [first, last) (first <= last) to
/// `threads`, each running `body(index)`. If a spawn fails, calls `stop`
/// (which must make every started thread return), joins and removes the
/// threads started here, and throws ResourceLimitError whose demand is
/// `last` and whose limit is `first` plus the number of threads that did
/// start (a caller that participates as worker 0 passes first = 1, so both
/// counts include it). `what` names the owner.
void spawn_threads(std::vector<std::thread>& threads, unsigned first,
                   unsigned last, const char* what,
                   const std::function<void(unsigned)>& body,
                   const std::function<void()>& stop);

}  // namespace pcmax
