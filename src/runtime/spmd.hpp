// SPMD launcher: run one function body on P ranks. Rank 0 runs on the
// calling thread and ranks 1 … P − 1 on one thread each, so a one-rank run
// starts no thread (and no thread-local malloc arena).
//
// Exceptions thrown by any rank are captured and the first one (by rank
// order) is rethrown to the caller after every thread has joined — a rank
// failure never leaks detached threads (CP.23/CP.26: threads are scoped,
// never detached).
#pragma once

#include <functional>

#include "runtime/comm.hpp"

namespace ulba::runtime {

/// Run `body(comm)` on `size` ranks — rank 0 on the calling thread, the
/// others on `size` − 1 new threads — and wait for all of them.
void spmd_run(int size, const std::function<void(Comm&)>& body);

}  // namespace ulba::runtime
